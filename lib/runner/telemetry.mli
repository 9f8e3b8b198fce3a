(** Run telemetry: per-job wall-clock, queue wait, cache hits, errors.

    Collected over a pool run and emitted two ways: a human-readable
    summary table, and a machine-readable JSON report for the perf
    trajectory (BENCH files, CI artifacts). *)

type t = {
  pool_jobs : int;  (** worker-domain count the run used *)
  total_wall_s : float;  (** whole-suite wall-clock *)
  results : Job.result array;
}

val make : pool_jobs:int -> total_wall_s:float -> Job.result array -> t

val now_s : unit -> float
(** The sanctioned wall-clock read ([Unix.gettimeofday]) for run timing.
    ccsim-lint rule R2 bans direct wall-clock calls outside [lib/runner]
    and [lib/obs] so simulated results can never depend on the host
    clock; elapsed-time measurement elsewhere must route through this. *)

val date_utc : unit -> string
(** Today's UTC date as ["YYYY-MM-DD"], via {!now_s}. For stamping
    reports and BENCH artifacts only — never simulation inputs. *)

val host_cores : unit -> int
(** [Domain.recommended_domain_count ()]: how many worker domains the
    host can actually run in parallel. *)

val oversubscribed : t -> bool [@@ccsim.test_only "tests check the runner's report"]
(** Whether the run used more worker domains than {!host_cores} — its
    wall-clock speedup is then bounded by the cores, not the workers,
    and comparing against [pool_jobs] would be misleading. Flagged in
    {!summary} and {!to_json}. *)

val exit_code : t -> int
(** The unified CLI exit code for this run: 1 if any job failed, else
    0. Usage errors (2) and unsupported backends (124) are decided
    before a pool run exists. *)

val summary : t -> string
(** Rendered per-job table plus a totals line. *)

val to_json :
  ?profiles:((string * string) list [@ccsim.test_only "tests embed per-job profiles with it"]) ->
  t ->
  string [@@ccsim.test_only "tests check the runner's report"]
(** Machine-readable report: schema ["ccsim-runner/2"], pool size, host
    cores, the {!oversubscribed} flag, total wall-clock, aggregate
    counters, and one record per job. [profiles]
    maps job names to pre-rendered JSON objects (engine-profiler output,
    see {!Ccsim_obs.Profile.to_json}); a matching job record gains a
    ["profile"] field. The strings are embedded verbatim and must be
    valid JSON. *)

val write_json : ?profiles:(string * string) list -> t -> path:string -> unit
(** [to_json] written atomically; parent directories are created. *)
