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
    checks; [Sim] rejects NaN at every entry point). *)

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

val add : 'a t -> time:float -> 'a -> id
(** Insert an event; [time] may be any float but NaN (caller enforces
    monotonicity policies). Equivalent to [add_reserved] under a fresh
    {!reserve}. *)

val reserve : 'a t -> int
(** Take the next sequence number without adding an event: the number
    {!add} would have used at this point. Lets a caller park an event
    outside the heap (e.g. a delay line's later entries) and add it
    later with {!add_reserved}, at exactly the position an {!add} at
    reserve time would have given it among same-instant events. *)

val add_reserved : 'a t -> time:float -> seq:int -> 'a -> id
(** [add_reserved h ~time ~seq x] inserts an event under a sequence
    number taken earlier by {!reserve}; each reserved number must be
    added at most once. Raises [Invalid_argument] for a number {!reserve}
    never returned. *)

val cancel : 'a t -> id -> unit
(** Remove a pending event. Cancelling twice or cancelling an
    already-fired event is a no-op. *)

val reschedule : 'a t -> id -> time:float -> 'a -> id
(** [reschedule h id ~time x] is [cancel h id; add h ~time x]: the event
    runs [x] at [time] and takes the next sequence number, so it sits
    exactly where that pair of calls would put it. When [id] is pending
    the event is moved in place and [id] is returned; otherwise a fresh
    event is added and its handle returned. Use the returned handle from
    then on. *)

val cancelled : 'a t -> id -> bool
(** Whether the event already fired or was cancelled — i.e. whether a
    {!cancel} on it would be a no-op. Lets the profiler count only
    live cancellations. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove and return the earliest event's payload, raising {!Empty}
    when none is left. Allocation-free: the event's time is read back
    through {!last_time}. This is the engine loop's path; {!pop} wraps
    it for option-style callers. *)

val last_time : 'a t -> float
(** Time of the event most recently removed by {!pop_exn} (or {!pop});
    [nan] before the first removal. *)

val next_time : 'a t -> float
(** Time of the earliest event, or [infinity] when the heap is empty —
    the allocation-free {!peek_time}. *)

val pop : 'a t -> (float * 'a) option
[@@ccsim.test_only "tests drive the heap against its reference model"]
(** Remove and return the earliest event, or [None] when the heap is
    empty. *)

val peek_time : 'a t -> float option
[@@ccsim.test_only "tests drive the heap against its reference model"]
(** Time of the earliest event without removing it. *)

val size : 'a t -> int
(** Number of pending events. *)

val is_empty : 'a t -> bool
