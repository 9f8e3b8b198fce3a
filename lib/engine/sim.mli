(** Discrete-event simulation core: virtual clock + event loop.

    All simulator components close over a [Sim.t] and schedule thunks.
    Running is single-threaded and deterministic: events at equal times
    fire in scheduling order. *)

type t

type event_id [@@immediate]
(** Handle to a scheduled event; an immediate int, so keeping one in a
    mutable field costs a plain store. It goes stale when the event
    fires or is cancelled. *)

val no_event : event_id
(** A handle that is never pending, for initialising timer fields:
    {!cancel} ignores it and {!reschedule} schedules afresh. *)

val create : unit -> t
(** A fresh simulation at time 0. Its instruments are the ambient
    {!Ccsim_obs.Scope}'s, read once here; wrap the call in
    {!Ccsim_obs.Scope.with_scope} to attach them.

    With a profile, every executed event's wall time and minor words
    are charged, exactly, to the component its callback declares via
    {!set_component}; the peak heap depth (pending events, {!pending})
    is tracked; scheduled and cancelled events are counted per
    component (attributed to the component running when the call
    happens); and {!run} notes the clock it reached and the run's
    promoted and major words when it returns.

    With a metrics registry, the event-heap depth ({!pending} events,
    the executing one included) is observed per executed event into
    the shared ["engine_heap_depth"] histogram (one instrument per
    registry, so multiple sims in a job aggregate).

    With a timeline, the sim tags its series with a fresh ["sim"] id,
    and a periodic driver (at {!Ccsim_obs.Timeline.interval}) samples
    every probe registered via {!add_timeline_probe}.

    With a watchdog, a periodic driver (at
    {!Ccsim_obs.Watchdog.interval}) sweeps the registered invariant
    checks, {!step} verifies clock monotonicity, and {!run} performs a
    final sweep before returning — raising
    {!Ccsim_obs.Watchdog.Violation} on the first broken invariant.

    The timeline and watchdog drivers are private to the sim: they
    reschedule themselves only while other events remain, so they never
    keep an otherwise-drained run alive. Without instruments, the event
    loop is unchanged — no timing, no allocation; with or without them,
    the loop itself (the horizon test, the pop, the clock store)
    allocates nothing. *)

val now : t -> float
(** Current virtual time in seconds (0 at creation). *)

val watchdog : t -> Ccsim_obs.Watchdog.t option
(** The attached invariant watchdog, if any. *)

val add_timeline_tags : t -> (string * string) list -> unit
(** Prepend labels to every series this sim registers from now on (e.g.
    the scenario name). No-op without a timeline (the tags are stored
    but never used). *)

val timeline_series : t -> ?labels:Ccsim_obs.Timeline.labels -> string -> Ccsim_obs.Timeline.series option
(** Register (or fetch) a series carrying this sim's tags, for
    components that record exact points directly. [None] without a
    timeline. *)

val add_timeline_probe : t -> ?labels:Ccsim_obs.Timeline.labels -> string -> (unit -> float) -> unit
(** Register a gauge-style probe sampled by the timeline driver every
    {!Ccsim_obs.Timeline.interval} seconds. No-op without a timeline. *)

val set_component : t -> Ccsim_obs.Profile.component -> unit
(** Called at the top of a component's event callback to attribute the
    callback's execution time and allocation. It is one store of an
    immediate, with or without a profile. The last component set during
    an event wins (a delivery that triggers synchronous TCP processing
    is charged to [Tcp], not [Link]). Unattributed events are charged to
    [Other]. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule sim ~delay f] runs [f] at [now + delay]. [delay] must be
    non-negative and not NaN (raises [Invalid_argument] otherwise). *)

val schedule_in : t -> float array -> (unit -> unit) -> event_id
(** [schedule_in sim delay f] is [schedule sim ~delay:delay.(0) f]: the
    same time and sequence number, checked the same way, with the delay
    read from a caller's float-array slot. Under separate compilation a
    float passed to another module is boxed; a link schedules each
    serialization this way, so a transmission boxes none. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant; [time] must not precede [now] nor be NaN. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event; no-op if already fired or cancelled. *)

val reschedule : t -> event_id -> delay:float -> (unit -> unit) -> event_id
(** [reschedule sim id ~delay f] is [cancel sim id; schedule sim ~delay f]
    without the churn: a pending event is moved in place to
    [now + delay] and runs [f] there, under the next sequence number, so
    it fires exactly where that pair of calls would have put it among
    same-instant events. When [id] already fired or was cancelled, [f]
    is scheduled afresh. Returns the handle to keep ([id] itself when it
    was pending). The profiler counts the call as the cancel (when [id]
    was pending) plus the schedule it replaces. A re-armed timer with
    one long-lived callback thus costs no allocation and leaves no
    cancelled entry behind. [delay] is checked as in {!schedule}. *)

val is_pending : t -> event_id -> bool
(** Whether the event is still scheduled (neither fired nor cancelled). *)

val run : ?until:float -> t -> unit
(** Process events in time order until the heap is empty or the clock
    would pass [until]. With [until], the clock is left at exactly
    [until] afterwards, and events scheduled at [until] fire. A NaN
    [until] raises [Invalid_argument]. *)

val step : t -> bool
(** Process a single event; [false] when none remain. *)

val pending : t -> int
(** Number of pending events: the event heap's entries plus the
    delay-line entries parked behind their line's head (see {!line}).
    The profiler's heap depth and the ["engine_heap_depth"] histogram
    count the same events (pending ones, the executing one included),
    so neither moves when events go into a line instead of the heap. *)

(** {1 Delay lines}

    A delay line is a FIFO of pending events that all run one handler,
    like a link's packets in propagation. Its entries wait in a ring,
    and only the oldest one's event sits in the event heap. So a line
    holding a thousand packets adds one heap entry, not a thousand, and
    a push allocates no closure. Each pushed event fires exactly where
    [ignore (schedule sim ~delay (fun () -> handler x))] at push time
    would have fired it, same-instant ties included: the push takes the
    heap's next sequence number then ({!Event_heap.reserve}), and the
    entry enters the heap under it when the entry before it fires. *)

type 'a line

val line : t -> empty:'a -> ('a -> unit) -> 'a line
(** [line sim ~empty handler] creates an empty line whose events run
    [handler]. [empty] is never passed to [handler]: it fills the slots
    of fired entries so the line keeps no reference to them. The ring
    is allocated by the first push and doubles when full; a line that
    drains keeps it for the next push. *)

val push : 'a line -> delay:float -> 'a -> unit
(** [push l ~delay x] runs [handler x] at [now + delay]. Pushes must
    come in non-decreasing time order: [delay] must be non-negative
    and not NaN, and [now + delay] must not precede the time of the
    line's newest entry (raises [Invalid_argument] otherwise). A pushed
    event cannot be cancelled. The profiler counts it as a scheduled
    event, charged like {!schedule}. *)

val every : t -> interval:float -> ?stop_after:float -> (unit -> unit) -> unit
(** [every sim ~interval f] runs [f] at [now + interval] and every
    [interval] thereafter, until [stop_after] (absolute time,
    default never) or the end of the run. Each tick is an ordinary
    event: it keeps the run alive, so a source without [stop_after]
    needs [run ~until], and [f] declares its component with
    {!set_component} like any callback. A tick reschedules itself
    without allocating. [interval] must be positive (NaN is
    rejected). The fluid engine's stepper ([Fluid_driver]) is such a
    source. *)
