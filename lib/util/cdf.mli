(** Empirical cumulative distribution functions.

    Used to report the distributional results of Figure 2 (fractions of
    flows with throughput level shifts) and the various §2 sweeps. *)

type t

val of_samples : float array -> t
(** Build an ECDF from samples. Raises [Invalid_argument] if empty. *)

val eval : t -> float -> float
(** [eval cdf x] is P(X <= x) under the empirical distribution. *)

val quantile : t -> float -> float
(** [quantile cdf q] with [q] in [\[0,1\]]: smallest sample [x] with
    [eval cdf x >= q]. *)

val count : t -> int
val min_value : t -> float
val max_value : t -> float

val points : t -> (float * float) list
(** The ECDF's step points [(x, F(x))] in increasing [x] order, deduplicated;
    suitable for plotting or textual rendering. *)

val sample_points : t -> n:int -> (float * float) list
(** [n] evenly spaced quantile points [(quantile q, q)] for compact
    reporting; [n >= 2]. *)
