(* Test-only reference: the engine's previous event queue, moved here
   verbatim as the oracle that test_engine.ml checks the indexed heap in
   Ccsim_engine.Event_heap against. *)

(** Binary min-heap of timed events with O(log n) insert/extract and
    O(1) lazy cancellation.

    Keys are (time, sequence) pairs; the sequence number breaks ties so
    that events scheduled for the same instant fire in scheduling order —
    a property the TCP model relies on (e.g. an ack arriving "at the same
    time" as a timer must be processed deterministically). *)

type 'a t

type id
(** Handle for cancellation. *)

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> id
(** Insert an event; [time] may be any float (caller enforces
    monotonicity policies). *)

val cancel : 'a t -> id -> unit
(** Mark an event as cancelled. Cancelled events are skipped by
    {!pop}; cancelling twice or cancelling an already-fired event is a
    no-op. *)

val cancelled : id -> bool
(** Whether the event already fired or was cancelled — i.e. whether a
    {!cancel} on it would be a no-op. Lets the profiler count only
    live cancellations. *)

exception Empty

val pop_exn : 'a t -> 'a
(** Remove and return the earliest non-cancelled event's payload,
    raising {!Empty} when none is left. Allocation-free: the event's
    time is read back through {!last_time}. This is the engine loop's
    path; {!pop} wraps it for option-style callers. *)

val last_time : 'a t -> float
(** Time of the event most recently removed by {!pop_exn} (or {!pop});
    [nan] before the first removal. *)

val next_time : 'a t -> float
(** Time of the earliest non-cancelled event, or [infinity] when the
    heap has none left — the allocation-free {!peek_time}. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest non-cancelled event, or [None] when
    the heap has none left. *)

val peek_time : 'a t -> float option
(** Time of the earliest non-cancelled event without removing it. *)

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool
