(** Fixed-capacity sliding window of floats.

    Nimbus keeps the last N samples of its rate signals for its
    spectral estimate. BBR's bandwidth filter windows by round, not by
    sample count: see {!Windowed_max}. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if capacity is not positive. *)

val push : t -> float -> unit
(** Append, evicting the oldest element when full. *)

val length : t -> int
val is_full : t -> bool

val newest : t -> float
(** Raises [Invalid_argument] when empty. *)

val blit : t -> float array -> unit
(** [blit t dst] copies the retained elements, oldest first, into the
    first [length t] slots of [dst] without allocating; raises
    [Invalid_argument] if [dst] is shorter. *)
