module Table = Ccsim_util.Table

type t = {
  pool_jobs : int;
  total_wall_s : float;
  results : Job.result array;
}

let make ~pool_jobs ~total_wall_s results = { pool_jobs; total_wall_s; results }

(* The sanctioned wall-clock read for run timing. ccsim-lint (R2) bans
   Unix.gettimeofday outside lib/runner and lib/obs; anything that
   measures real elapsed time (bin, bench) must come through here. *)
let now_s = Unix.gettimeofday

(* Sanctioned date read for report stamping (same R2 rationale as
   [now_s]): simulated results never depend on it, only artifacts. *)
let date_utc () =
  let tm = Unix.gmtime (now_s ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let host_cores () = Domain.recommended_domain_count ()

let count p t = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 t.results
let cache_hits = count (fun (r : Job.result) -> r.cache_hit)
let failures = count (fun (r : Job.result) -> not r.ok)
let degraded = count (fun (r : Job.result) -> r.degraded)
let timeouts = count (fun (r : Job.result) -> r.timed_out)

(* Unified CLI exit codes (documented in README): 0 all jobs ok,
   1 verdict/job failure, 124 timeout (including degraded deadline
   hits). Usage errors exit 2 via cmdliner; unsupported backends exit
   124 before any pool run. *)
let exit_code t =
  if timeouts t > 0 then 124 else if failures t > 0 then 1 else 0

(* More worker domains than host cores means the workers time-share: the
   suite still completes, but wall-clock speedup is bounded by the cores,
   so comparing it against the worker count is misleading. The flag is
   surfaced in both the summary line and the JSON report so BENCH
   numbers from small CI hosts read honestly. *)
let oversubscribed t = t.pool_jobs > host_cores ()

let summary t =
  let table =
    Table.create
      ~columns:
        [
          ("job", Table.Left);
          ("status", Table.Left);
          ("cache", Table.Left);
          ("attempts", Table.Right);
          ("queue s", Table.Right);
          ("wall s", Table.Right);
        ]
  in
  Array.iter
    (fun (r : Job.result) ->
      Table.add_row table
        [
          r.name;
          (if r.degraded then "degraded"
           else if r.ok then "ok"
           else if r.timed_out then "timeout"
           else "error");
          (if r.cache_hit then "hit" else "miss");
          string_of_int r.attempts;
          Table.cell_f ~decimals:3 r.queue_wait_s;
          Table.cell_f ~decimals:3 r.wall_s;
        ])
    t.results;
  let busy = Array.fold_left (fun s (r : Job.result) -> s +. r.wall_s) 0.0 t.results in
  let oversub =
    if oversubscribed t then
      Printf.sprintf " [oversubscribed: %d worker(s) on %d core(s)]" t.pool_jobs
        (host_cores ())
    else ""
  in
  Printf.sprintf
    "run telemetry: %d jobs on %d worker(s)%s, %.3fs wall (%.3fs cumulative job time), %d cache hit(s), %d failure(s), %d degraded\n%s"
    (Array.length t.results) t.pool_jobs oversub t.total_wall_s busy (cache_hits t)
    (failures t) (degraded t) (Table.render table)

let to_json ?(profiles = []) t =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "{\n  \"schema\": \"ccsim-runner/1\",\n  \"pool_jobs\": %d,\n  \"host_cores\": %d,\n  \"oversubscribed\": %b,\n  \"total_wall_s\": %.6f,\n  \"cache_hits\": %d,\n  \"failures\": %d,\n  \"degraded\": %d,\n  \"jobs\": [\n"
    t.pool_jobs (host_cores ()) (oversubscribed t) t.total_wall_s (cache_hits t)
    (failures t) (degraded t);
  Array.iteri
    (fun i (r : Job.result) ->
      let profile_field =
        match List.assoc_opt r.name profiles with
        | Some json -> Printf.sprintf ", \"profile\": %s" json
        | None -> ""
      in
      Printf.bprintf buf
        "    {\"name\": %s, \"digest\": %s, \"ok\": %b, \"cache_hit\": %b, \"attempts\": %d, \"queue_wait_s\": %.6f, \"wall_s\": %.6f, \"timed_out\": %b, \"degraded\": %b, \"error\": %s%s}%s\n"
        (Ccsim_obs.Json.str r.name) (Ccsim_obs.Json.str r.digest) r.ok r.cache_hit r.attempts
        r.queue_wait_s r.wall_s r.timed_out r.degraded
        (match r.error with None -> "null" | Some e -> Ccsim_obs.Json.str e)
        profile_field
        (if i = Array.length t.results - 1 then "" else ","))
    t.results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let rec mkdir_p dir =
  if not (String.equal dir "") && not (String.equal dir ".") && not (String.equal dir "/") && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_json ?(profiles = []) t ~path =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json ~profiles t));
  Sys.rename tmp path
