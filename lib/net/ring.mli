(** Growable FIFO ring: the packet queues of {!Fifo}, {!Drr} and
    {!Shaper}, and DRR's round of backlogged flows.

    The array doubles when full and never shrinks, so a steady queue
    allocates nothing. Every slot that holds no element holds the
    ring's [filler], and a removed element's slot is overwritten at
    once: the ring never keeps a departed element alive, so the
    collector never promotes one through it. *)

type 'a t

val create : filler:'a -> 'a t
(** An empty ring. [filler] fills free slots, and {!peek}, {!pop} and
    {!pop_newest} return it when the ring is empty; choose a value no
    caller pushes and test for it with [==]. The first {!push}
    allocates the array. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the newest end. *)

val peek : 'a t -> 'a
(** The oldest element, or [filler] when empty. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element, or [filler] when empty. *)

val pop_newest : 'a t -> 'a
(** Remove and return the newest element (a tail drop), or [filler]
    when empty. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over the elements, oldest first. *)
