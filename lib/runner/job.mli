(** Schedulable experiment jobs.

    A job is a named thunk that runs one experiment and returns its
    rendered result rows as a string, plus a stable digest derived from
    the experiment's canonical parameters (and seed). The digest keys
    the on-disk result cache: two jobs with equal digests are assumed to
    produce byte-identical output, which holds because every scenario
    owns its seeded {!Ccsim_util.Rng}. *)

type t = private { name : string; digest : string; run : unit -> string }

val make : name:string -> digest:string -> (unit -> string) -> t

val digest_of_params : name:string -> (string * string) list -> string
(** Stable hex digest of the job name and its [(key, value)] parameters
    (sorted by key, so caller order is irrelevant). The digest is salted
    with a cache-format version; bump the salt when renderers change
    incompatibly. *)

type result = {
  name : string;
  digest : string;
  output : string;  (** rendered rows; an error row if the job failed *)
  ok : bool;
  error : string option;  (** exception text, or the degraded notice *)
  cache_hit : bool;  (** served from the cache; the job did not run *)
  queue_wait_s : float;  (** submission-to-start latency *)
  wall_s : float;  (** execution wall-clock (0 on a cache hit) *)
  degraded : bool;
      (** The job completed ([ok] stays true) but a quarantine-policy
          watchdog saw an invariant violated on the way, so its numbers
          are suspect; reports mark the row degraded. The pool never
          sets it: the CLI does, after the pool drains. *)
}

val error_row : name:string -> string -> string
(** The one-line report block substituted for a failed job's output. *)
