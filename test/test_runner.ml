(* Ccsim_runner: domain pool, result cache, digests, sweeps.

   The load-bearing property is the acceptance criterion: a parallel
   pool produces row-for-row identical output to a serial one, because
   every scenario owns its seeded Rng and jobs render to strings. *)

module R = Ccsim_runner
module E = Ccsim_core.Experiments

let job_of ?duration ?n ~seed (e : E.t) =
  let params = E.effective_params e ?duration ?n ~seed () in
  R.Job.make ~name:e.id
    ~digest:(R.Job.digest_of_params ~name:e.id params)
    (fun () -> e.render ?duration ?n ~seed ())

let exp id = Option.get (E.find id)

let outputs results = Array.to_list (Array.map (fun (r : R.Job.result) -> r.output) results)

let test_parallel_matches_serial () =
  (* Both experiments warm up for 10 simulated seconds, so durations
     must exceed that. *)
  let mk () = [ job_of ~duration:12.0 ~seed:7 (exp "fig1"); job_of ~duration:12.0 ~seed:7 (exp "e1") ] in
  let serial = R.Pool.run ~jobs:1 (mk ()) in
  let parallel = R.Pool.run ~jobs:4 (mk ()) in
  Alcotest.(check (list string))
    "fig1+e1 rows identical across -j 1 / -j 4" (outputs serial) (outputs parallel);
  Array.iter (fun (r : R.Job.result) -> Alcotest.(check bool) "ok" true r.ok) parallel

let test_raising_job_isolated () =
  let boom = R.Job.make ~name:"boom" ~digest:"deadbeef" (fun () -> failwith "kaboom") in
  let fine = R.Job.make ~name:"fine" ~digest:"cafe" (fun () -> "fine rows\n") in
  let results = R.Pool.run ~jobs:2 [ boom; fine ] in
  Alcotest.(check int) "both jobs reported" 2 (Array.length results);
  let b = results.(0) and f = results.(1) in
  Alcotest.(check bool) "raising job failed" false b.ok;
  Alcotest.(check bool)
    "error text kept" true
    (match b.error with Some e -> e <> "" | None -> false);
  Alcotest.(check string) "error row substituted" (R.Job.error_row ~name:"boom" (Option.get b.error)) b.output;
  Alcotest.(check bool) "sibling job unaffected" true f.ok;
  Alcotest.(check string) "sibling output intact" "fine rows\n" f.output

let with_tmp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsim_cache_test_%d_%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  let cache = R.Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      R.Cache.clear cache;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f cache)

let test_cache_hit_skips_execution () =
  with_tmp_cache @@ fun cache ->
  let executions = ref 0 in
  let mk () =
    R.Job.make ~name:"counted" ~digest:"0123abcd" (fun () ->
        incr executions;
        "expensive rows\n")
  in
  let first = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  let second = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  Alcotest.(check bool) "first run misses" false first.(0).cache_hit;
  Alcotest.(check bool) "second run hits" true second.(0).cache_hit;
  Alcotest.(check int) "thunk ran once" 1 !executions;
  Alcotest.(check string) "identical rows from cache" first.(0).output second.(0).output

(* A store whose write fails leaves nothing behind: here its temporary
   file is a symlink to /dev/full, so the flush at close fails. The
   job's rows are never served from a partial entry. *)
let test_cache_failed_store_leaves_no_entry () =
  with_tmp_cache @@ fun cache ->
  let digest = "badd15c0" in
  let tmp = R.Cache.tmp_path cache ~digest in
  Unix.symlink "/dev/full" tmp;
  R.Cache.store cache ~digest "rows that never reach the disk\n";
  Alcotest.(check (option string)) "no entry" None (R.Cache.find cache digest);
  Alcotest.(check bool) "temporary file removed" false
    (match Unix.lstat tmp with _ -> true | exception Unix.Unix_error _ -> false)

(* An entry with one byte changed on disk fails its digest: the job
   runs again, and its fresh entry is served after that. *)
let test_cache_corrupt_entry_recomputed () =
  with_tmp_cache @@ fun cache ->
  let executions = ref 0 in
  let mk () =
    R.Job.make ~name:"counted" ~digest:"c0ffee00" (fun () ->
        incr executions;
        "expensive rows\n")
  in
  let first = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  let dir = Filename.dirname (R.Cache.tmp_path cache ~digest:"c0ffee00") in
  let entry =
    match List.filter (fun f -> Filename.check_suffix f ".out") (Array.to_list (Sys.readdir dir)) with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one entry, found %d" (List.length l)
  in
  let bytes = In_channel.with_open_bin entry In_channel.input_all |> Bytes.of_string in
  let i = Bytes.length bytes - 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
  Out_channel.with_open_bin entry (fun oc -> Out_channel.output_bytes oc bytes);
  let second = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  let third = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  Alcotest.(check bool) "first run misses" false first.(0).cache_hit;
  Alcotest.(check bool) "the changed entry misses" false second.(0).cache_hit;
  Alcotest.(check int) "so the job ran again" 2 !executions;
  Alcotest.(check string) "with the same rows" first.(0).output second.(0).output;
  Alcotest.(check bool) "and its new entry hits" true third.(0).cache_hit;
  Alcotest.(check string) "with those rows" first.(0).output third.(0).output

let test_failures_not_cached () =
  with_tmp_cache @@ fun cache ->
  let attempts = ref 0 in
  let mk () =
    R.Job.make ~name:"sometimes" ~digest:"feedface" (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "first run breaks" else "good rows\n")
  in
  let first = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  let second = R.Pool.run ~jobs:1 ~cache [ mk () ] in
  Alcotest.(check bool) "first failed" false first.(0).ok;
  Alcotest.(check bool) "failure was not served from cache" false second.(0).cache_hit;
  Alcotest.(check bool) "second succeeded" true second.(0).ok

let test_digest_stability () =
  let d1 = R.Job.digest_of_params ~name:"e1" [ ("duration", "60"); ("seed", "42") ] in
  let d2 = R.Job.digest_of_params ~name:"e1" [ ("seed", "42"); ("duration", "60") ] in
  let d3 = R.Job.digest_of_params ~name:"e1" [ ("duration", "60"); ("seed", "43") ] in
  let d4 = R.Job.digest_of_params ~name:"e2" [ ("duration", "60"); ("seed", "42") ] in
  Alcotest.(check string) "parameter order canonicalized" d1 d2;
  Alcotest.(check bool) "seed changes digest" true (d1 <> d3);
  Alcotest.(check bool) "name changes digest" true (d1 <> d4)

let test_sweep_points () =
  let points =
    R.Sweep.points [ R.Sweep.axis "exp" [ "e1"; "e2" ]; R.Sweep.ints "seed" [ 1; 2; 3 ] ]
  in
  Alcotest.(check int) "cross product size" 6 (List.length points);
  Alcotest.(check string) "first axis varies slowest" "exp=e1 seed=1"
    (R.Sweep.label (List.hd points));
  Alcotest.(check (option string)) "lookup" (Some "e2")
    (R.Sweep.get (List.nth points 5) "exp");
  Alcotest.(check int) "no axes -> one empty point" 1 (List.length (R.Sweep.points []));
  Alcotest.check_raises "empty axis rejected"
    (Invalid_argument "Sweep.axis bad: no values") (fun () ->
      ignore (R.Sweep.axis "bad" []))

let test_telemetry_exit_codes () =
  let ok = R.Job.make ~name:"a" ~digest:"aa" (fun () -> "fine\n") in
  let results = R.Pool.run ~jobs:1 [ ok ] in
  let tele = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check int) "all ok -> 0" 0 (R.Telemetry.exit_code tele);
  let boom = R.Job.make ~name:"b" ~digest:"bb" (fun () -> failwith "x") in
  let results = R.Pool.run ~jobs:1 [ ok; boom ] in
  let tele = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check int) "failure -> 1" 1 (R.Telemetry.exit_code tele)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* More workers than host cores: the speedup claim in BENCH/telemetry
   output would otherwise mislead, so the report must say so. *)
let test_telemetry_oversubscription () =
  let ok = R.Job.make ~name:"a" ~digest:"aa" (fun () -> "fine\n") in
  let results = R.Pool.run ~jobs:1 [ ok ] in
  let cores = R.Telemetry.host_cores () in
  Alcotest.(check bool) "cores positive" true (cores > 0);
  let over = R.Telemetry.make ~pool_jobs:(cores + 1) ~total_wall_s:0.1 results in
  Alcotest.(check bool) "flagged" true (R.Telemetry.oversubscribed over);
  Alcotest.(check bool) "summary annotated" true
    (contains ~sub:"[oversubscribed:" (R.Telemetry.summary over));
  Alcotest.(check bool) "json flagged" true
    (contains ~sub:"\"oversubscribed\": true" (R.Telemetry.to_json over));
  let fits = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check bool) "one worker never oversubscribes" false
    (R.Telemetry.oversubscribed fits);
  Alcotest.(check bool) "summary clean" false
    (contains ~sub:"[oversubscribed:" (R.Telemetry.summary fits));
  Alcotest.(check bool) "json carries host_cores" true
    (contains ~sub:"\"host_cores\":" (R.Telemetry.to_json fits))

let test_registry_complete () =
  Alcotest.(check int) "twenty experiments" 20 (List.length E.all);
  Alcotest.(check bool) "find p1" true (E.find "p1" <> None);
  (match E.find "p1" with
  | Some p1 ->
      Alcotest.(check (list string)) "p1 backends" [ "fluid"; "hybrid" ] p1.E.backends;
      let params = E.effective_params p1 ~seed:7 () in
      Alcotest.(check (option string)) "backend default in params" (Some "fluid")
        (List.assoc_opt "backend" params)
  | None -> ());
  Alcotest.(check bool) "find fig1" true (E.find "fig1" <> None);
  Alcotest.(check bool) "find unknown" true (E.find "nope" = None);
  let params = E.effective_params (exp "fig2") ~seed:7 () in
  Alcotest.(check (option string)) "sized default applied" (Some "9984")
    (List.assoc_opt "n" params)

(* Entries are keyed by code identity too. An entry this test binary
   stores under e4's job digest is never read by the ccsim binary, and
   ccsim's own entry under that digest does not displace it here. Each
   binary still hits its own entry. *)
let test_cache_keyed_by_code_identity () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsim_cache_identity_%d_%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  let cache = R.Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      R.Cache.clear cache;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let e4 = exp "e4" in
  let digest = R.Job.digest_of_params ~name:e4.id (E.effective_params e4 ~duration:6.0 ~seed:42 ()) in
  let planted = "rows stored by another binary\n" in
  R.Cache.store cache ~digest planted;
  let ccsim = Filename.concat (Filename.dirname Sys.executable_name) "../bin/ccsim.exe" in
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let run () =
    let out = Filename.concat dir "stdout.txt" in
    let code =
      Sys.command
        (Printf.sprintf "CCSIM_CACHE_DIR=%s %s sweep e4 --seeds 42 --durations 6 > %s 2>/dev/null"
           (Filename.quote dir)
           (Filename.quote ccsim) (Filename.quote out))
    in
    Alcotest.(check int) "ccsim sweep exits 0" 0 code;
    let rows = read out in
    Sys.remove out;
    (rows, read (Filename.concat dir "last_sweep.json"))
  in
  let rows1, report1 = run () in
  let rows2, report2 = run () in
  Alcotest.(check bool) "ccsim never reads another binary's entry" false (contains ~sub:planted rows1);
  Alcotest.(check bool) "so its first run misses" true (contains ~sub:"\"cache_hits\": 0," report1);
  Alcotest.(check bool) "and its second run hits its own entry" true
    (contains ~sub:"\"cache_hits\": 1," report2);
  Alcotest.(check string) "with the same rows" rows1 rows2;
  Alcotest.(check (option string)) "this binary still hits its own entry" (Some planted)
    (R.Cache.find cache digest)

let suite =
  [
    ("pool: -j 4 rows identical to -j 1 (fig1, e1)", `Slow, test_parallel_matches_serial);
    ("pool: raising job yields error row, pool survives", `Quick, test_raising_job_isolated);
    ("cache: second run hits without re-executing", `Quick, test_cache_hit_skips_execution);
    ("cache: failures are not cached", `Quick, test_failures_not_cached);
    ("cache: keyed by the executable's code identity", `Quick, test_cache_keyed_by_code_identity);
    ("cache: a failed store leaves no entry", `Quick, test_cache_failed_store_leaves_no_entry);
    ("cache: a changed entry is recomputed", `Quick, test_cache_corrupt_entry_recomputed);
    ("job: digest is canonical and parameter-sensitive", `Quick, test_digest_stability);
    ("sweep: cross product order and labels", `Quick, test_sweep_points);
    ("telemetry: exit codes 0/1", `Quick, test_telemetry_exit_codes);
    ("telemetry: oversubscription flagged", `Quick, test_telemetry_oversubscription);
    ("registry: DESIGN.md index is complete", `Quick, test_registry_complete);
  ]
