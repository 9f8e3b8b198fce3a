(** Fixed-bin histograms, for jitter/delay distributions (experiment E7). *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [\[lo, hi)] with equal-width bins plus
    implicit underflow/overflow counters. Requires [lo < hi], [bins > 0]. *)

val add : t -> float -> unit
val add_all : t -> float array -> unit
val count : t -> int
(** Total number of samples added, including under/overflow. *)

val bin_count : t -> int -> int
(** Samples in bin [i] (0-based). Raises [Invalid_argument] if out of range. *)

val underflow : t -> int
val overflow : t -> int

val bin_edges : t -> int -> float * float
(** Lower and upper edge of bin [i]. *)

val mode_bin : t -> int
(** Index of the fullest bin (smallest index on ties). Raises
    [Invalid_argument] when no samples have been added. *)
