(** Observability decorator for queue disciplines.

    {!instrument} wraps any {!Qdisc.t} — FIFO or DRR — with
    metrics and flight-recorder hooks, without touching the
    implementations: per-discipline enqueue/dequeue/drop counters
    ([qdisc_enqueued_total] etc., labeled [{qdisc=<name>}]), a backlog
    gauge, a log-scale sojourn-time histogram, and a ["qdisc"]-class
    drop event per dropped packet. Instruments are shared across wrapped
    instances with the same discipline name (registry semantics), so
    numbers aggregate per discipline.

    The wrapper shares the inner discipline's [stats] record and
    backlog closures: external readers of the original record keep
    working. Internal drops (DRR's longest-queue drop) are detected via
    [stats.dropped] deltas around each operation.

    When a {!Ccsim_obs.Span} store is given, the wrapper also drives
    the queue-side lifecycle-span sites for packets carrying the
    [sampled] tag: accepted enqueues open a span record at [hop],
    dequeues close the queueing phase, and tail drops complete the
    record as dropped.

    {!Link.create} applies this automatically to its qdisc when the
    ambient {!Ccsim_obs.Scope} carries metrics, a recorder, or a span
    store; with the default empty scope, [instrument] is never called
    and the qdisc is untouched. *)

val instrument :
  ?metrics:Ccsim_obs.Metrics.t ->
  ?recorder:Ccsim_obs.Recorder.t ->
  ?span:Ccsim_obs.Span.t ->
  ?hop:string ->
  now:(unit -> float) ->
  Qdisc.t ->
  Qdisc.t
(** Returns the qdisc unchanged when none of [metrics], [recorder],
    [span] is given. [hop] (default ["link"]) names the link in span
    records. *)
