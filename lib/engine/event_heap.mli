(** Indexed min-heap of timed events: O(log n) {!add}, {!pop_exn},
    {!cancel} and {!reschedule}, none of which allocates.

    Keys are (time, sequence) pairs; the sequence number breaks ties so
    that events scheduled for the same instant fire in scheduling order —
    a property the TCP model relies on (e.g. an ack arriving "at the same
    time" as a timer must be processed deterministically). A sequence
    number can be taken ahead of the event ({!reserve}, {!add_reserved}),
    which is how [Sim]'s delay lines keep all but their head out of the
    heap without moving any event's place in that order.

    Handles are immediate ints. {!cancel} unlinks the event at once, so
    the heap holds only pending events: a cancelled timer leaves nothing
    behind until its deadline. Event times must not be NaN (the caller
    checks; [Sim] rejects NaN at every entry point).

    Times come in and go out through float-array slots: an event is
    added at [clock.(0) +. delay] or at [times.(i)], and {!pop_exn}
    stores the popped time into the caller's clock slot. Under
    separate compilation ([-opaque]) a float passed to or returned from
    another module is boxed, so this keeps the engine loop's pop, its
    horizon test and a callback's reschedule free of allocation. *)

type 'a t

type id [@@immediate]
(** Handle to a scheduled event, for {!cancel} and {!reschedule}. It
    goes stale when the event fires or is cancelled; a stale handle
    never reaches a later event, even one that reuses its storage. *)

val none : id
(** A handle that is never pending: {!cancelled} holds, {!cancel} is a
    no-op and {!reschedule} adds a fresh event. Initialises handle
    fields. *)

val create : unit -> 'a t

val add : 'a t -> float array -> delay:float -> 'a -> id
(** [add h clock ~delay x] inserts [x] at [clock.(0) +. delay], which
    may be any float but NaN (the caller enforces monotonicity
    policies). Equivalent to [add_reserved] under a fresh {!reserve}. *)

val reserve : 'a t -> int
(** Take the next sequence number without adding an event: the number
    {!add} would have used at this point. Lets a caller park an event
    outside the heap (e.g. a delay line's later entries) and add it
    later with {!add_reserved}, at exactly the position an {!add} at
    reserve time would have given it among same-instant events. *)

val add_reserved : 'a t -> float array -> int -> seq:int -> 'a -> id
(** [add_reserved h times i ~seq x] inserts [x] at [times.(i)] under a
    sequence number taken earlier by {!reserve}; each reserved number
    must be added at most once. Raises [Invalid_argument] for a number
    {!reserve} never returned. *)

val cancel : 'a t -> id -> unit
(** Remove a pending event. Cancelling twice or cancelling an
    already-fired event is a no-op. *)

val reschedule : 'a t -> id -> float array -> delay:float -> 'a -> id
(** [reschedule h id clock ~delay x] is [cancel h id; add h clock ~delay
    x]: the event runs [x] at [clock.(0) +. delay] and takes the next
    sequence number, so it sits
    exactly where that pair of calls would put it. When [id] is pending
    the event is moved in place and [id] is returned; otherwise a fresh
    event is added and its handle returned. Use the returned handle from
    then on. *)

val cancelled : 'a t -> id -> bool
(** Whether the event already fired or was cancelled — i.e. whether a
    {!cancel} on it would be a no-op. Lets the profiler count only
    live cancellations. *)

exception Empty

val pop_exn : 'a t -> float array -> 'a
(** [pop_exn h clock] removes the earliest event, stores its time in
    [clock.(0)] and returns its payload, raising {!Empty} (and leaving
    [clock] alone) when none is left. *)

val due : 'a t -> until:float -> bool
(** Whether an event is pending at or before [until]. *)

val pop : 'a t -> (float * 'a) option
[@@ccsim.test_only "tests drive the heap against its reference model"]
(** Remove and return the earliest event, or [None] when the heap is
    empty. *)

val peek_time : 'a t -> float option
[@@ccsim.test_only "tests drive the heap against its reference model"]
(** Time of the earliest event without removing it. *)

val size : 'a t -> int
(** Number of pending events. *)
