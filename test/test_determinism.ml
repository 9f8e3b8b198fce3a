(* End-to-end determinism: the property ccsim-lint exists to protect.
   Two fast experiments run twice each — serial (-j 1) and on a domain
   pool (-j 2) — must agree on both the parameter digests (the cache
   keys) and a digest of the rendered output, run to run and across
   parallelism levels. A violation here means hidden shared state,
   hash-order dependence, or a wall-clock leak made it past the lint. *)

module R = Ccsim_runner
module E = Ccsim_core.Experiments

let exp id = Option.get (E.find id)

let job_of ~seed (e : E.t) =
  let params = E.effective_params e ~duration:12.0 ~seed () in
  R.Job.make ~name:e.id
    ~digest:(R.Job.digest_of_params ~name:e.id params)
    (fun () -> e.render ~duration:12.0 ~seed ())

(* (param digest, output digest) per job: everything a run can vary. *)
let run_digests ~jobs =
  let js = [ job_of ~seed:11 (exp "fig1"); job_of ~seed:11 (exp "e1") ] in
  R.Pool.run ~jobs js
  |> Array.map (fun (r : R.Job.result) ->
         Alcotest.(check bool) (r.name ^ " ok") true r.ok;
         (r.digest, Digest.to_hex (Digest.string r.output)))
  |> Array.to_list

let digest_pair = Alcotest.(pair string string)

let test_serial_rerun_identical () =
  let a = run_digests ~jobs:1 and b = run_digests ~jobs:1 in
  Alcotest.(check (list digest_pair)) "-j 1 twice: identical digests" a b

let test_parallel_rerun_identical () =
  let a = run_digests ~jobs:2 and b = run_digests ~jobs:2 in
  Alcotest.(check (list digest_pair)) "-j 2 twice: identical digests" a b

let test_parallelism_invisible () =
  let serial = run_digests ~jobs:1 and parallel = run_digests ~jobs:2 in
  Alcotest.(check (list digest_pair)) "-j 1 vs -j 2: identical digests" serial parallel

let suite =
  [
    Alcotest.test_case "serial reruns agree (fig1, e1)" `Slow test_serial_rerun_identical;
    Alcotest.test_case "parallel reruns agree (fig1, e1)" `Slow test_parallel_rerun_identical;
    Alcotest.test_case "parallelism leaves no trace (fig1, e1)" `Slow test_parallelism_invisible;
  ]
