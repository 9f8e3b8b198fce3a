(** Online invariant watchdog.

    Components register named invariant checks — closures returning
    [None] while the invariant holds, or [Some detail] when it is
    broken. The engine runs every check on a periodic sim-clock driver
    (and once more at the end of a run); what happens on a failure is
    the watchdog's {!policy}:

    - [Abort] (default): the first failure raises {!Violation} with a
      structured record, aborting the run — the historical behaviour.
    - [Quarantine]: the run continues; violations are collected
      ({!violations}) and the run is flagged {!degraded}, which the
      runner report surfaces instead of killing the job.
    - [Warn]: the run continues and violations are collected, but the
      run is not marked degraded — observe-only mode.

    Checks are written against physically conserved quantities (packet
    and byte conservation per link, queue backlog within capacity,
    cwnd positivity, simulation-time monotonicity, telemetry sample
    ordering), so a watchdog pass is evidence the simulation stayed
    mechanically sane — not just that it produced plausible numbers. *)

type violation = {
  at : float;  (** virtual time of the failed check *)
  component : string;  (** who registered the invariant, e.g. ["link/qdisc:fifo"] *)
  invariant : string;  (** e.g. ["packet_conservation"] *)
  message : string;  (** detail from the check *)
}

exception Violation of violation
(** Registered with [Printexc] so runner job errors carry the one-line
    report. *)

type policy = Warn | Quarantine | Abort

val policy_to_string : policy -> string
val policy_of_string : string -> policy option
(** ["warn"] / ["quarantine"] / ["abort"]; [None] otherwise. *)

type t

val create :
  ?interval:(float [@ccsim.test_only "tests set the watchdog's period with it"]) ->
  ?policy:policy ->
  unit ->
  t
(** Defaults: 0.25 s between check sweeps, policy [Abort]. Raises
    [Invalid_argument] if [interval <= 0]. *)

val interval : t -> float

val register : t -> component:string -> invariant:string -> (unit -> string option) -> unit
(** Add a check. The closure runs on every sweep; return [Some detail]
    to fail the run (under [Abort]) or flag it (otherwise). *)

val check_now : t -> now:float -> unit
(** Run every registered check (registration order). Under [Abort]:
    raises {!Violation} on the first failure — and on every subsequent
    call once tripped, so a violation cannot be outrun. Under [Warn] /
    [Quarantine]: records failures (deduplicated by component and
    invariant, capped) and returns. *)

val violate : t -> now:float -> component:string -> invariant:string -> string -> unit
(** Fail immediately from inline code (e.g. the engine's monotonicity
    check) without registering a closure; raises under [Abort],
    records otherwise. *)

val watch_timeline : t -> Timeline.t -> unit
(** Register the telemetry-ordering invariant over a timeline's
    {!Timeline.ordering_violation} latch. *)

val violation : t -> violation option
(** The first violation, if the watchdog tripped. *)

val violations : t -> violation list
(** Every recorded violation, oldest first — at most one per
    (component, invariant) pair, capped. Under [Abort] this holds at
    most the violation that raised. *)

val degraded : t -> bool
(** Tripped under the [Quarantine] policy: the run completed but its
    results must be treated as degraded. *)

val checks : t -> int [@@ccsim.test_only "tests count the watchdog's checks"]
(** Number of registered checks. *)

val checks_run : t -> int
(** Total individual check executions so far. *)

val one_line : violation -> string
val report : violation -> string
(** Multi-line structured report for stderr. *)
