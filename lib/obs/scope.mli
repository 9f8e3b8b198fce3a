(** Ambient observability scope.

    A scope bundles the observability facilities — metrics registry,
    flight recorder, engine profile, timeline, invariant watchdog —
    that instrumented components consult at creation time. The scope is ambient
    (domain-local): wrap a simulation build-and-run in {!with_scope} and
    every [Sim], [Link], qdisc, sender, and CCA created inside picks up
    the instruments automatically, with no constructor plumbing.

    The default scope is {!none}. Components created under it store no
    instruments and their hot paths reduce to a single [match] on
    [None] — the zero-instrumentation path allocates nothing and
    produces byte-identical simulation results.

    Scopes are per-domain ({!Domain.DLS}), so runner pool jobs that each
    set their own scope never observe one another. *)

type t = {
  metrics : Metrics.t option;
  recorder : Recorder.t option;
  profile : Profile.t option;
  timeline : Timeline.t option;
  watchdog : Watchdog.t option;
  span : Span.t option;
}

val none : t [@@ccsim.test_only "tests build and check an instrument-free scope with it"]

val v :
  ?metrics:Metrics.t ->
  ?recorder:Recorder.t ->
  ?profile:Profile.t ->
  ?timeline:Timeline.t ->
  ?watchdog:Watchdog.t ->
  ?span:Span.t ->
  unit ->
  t
val is_none : t -> bool [@@ccsim.test_only "tests build and check an instrument-free scope with it"]

val ambient : unit -> t
(** The current domain's scope ({!none} unless inside {!with_scope}). *)

val with_scope : t -> (unit -> 'a) -> 'a
(** Run [f] with [scope] ambient; restores the previous scope on exit,
    including on exceptions. Nestable. *)
