(** Domain pool: shard jobs across OCaml 5 domains.

    [run] executes every job and returns results in submission order.
    With [jobs = 1] everything runs inline on the calling domain, in
    order — serial runs are therefore bit-identical to calling the
    experiments directly. With [jobs > 1], that many worker domains
    drain a shared queue (each scenario owns its seeded Rng, so results
    stay row-for-row identical; only wall-clock changes).

    Crash isolation: a job that raises yields an error-row result
    ({!Job.error_row}) instead of killing the pool, and its siblings run
    on. With a [cache], a job whose digest is stored is served from it
    without running, and a job that succeeds is stored; a failure never
    is. *)

val run : jobs:int -> ?cache:Cache.t -> Job.t list -> Job.result array
(** [run ~jobs ?cache js] runs [js] on [jobs] worker domains ([<= 1]
    means inline serial). Results come back in submission order. *)
