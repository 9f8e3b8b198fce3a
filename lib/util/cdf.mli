(** Empirical cumulative distribution functions.

    Used to report the distributional results of Figure 2 (fractions of
    flows with throughput level shifts) and the various §2 sweeps. *)

type t

val of_samples : float array -> t
(** Build an ECDF from samples. Raises [Invalid_argument] if empty. *)

val quantile : t -> float -> float
(** [quantile cdf q] with [q] in [\[0,1\]]: the smallest sample [x]
    such that at least a fraction [q] of the samples are [<= x]. *)

val max_value : t -> float
