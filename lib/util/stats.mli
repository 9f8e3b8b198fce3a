(** Descriptive statistics over float samples.

    Two flavours: batch functions over arrays, and an online accumulator
    (Welford's algorithm) for streaming telemetry where storing every
    sample would be wasteful. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singleton arrays.
    Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val minimum : float array -> float
val maximum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics (the "linear" / type-7 method). Does not modify [xs].
    Raises [Invalid_argument] on an empty array or out-of-range [p]. *)

val median : float array -> float

val coefficient_of_variation : float array -> float
(** stddev / mean; raises [Invalid_argument] if the mean is zero. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p90 : float;
  p99 : float;
  max : float;
}

val summarize : float array -> summary
(** Full summary in one pass over a sorted copy. *)

(** Online mean/variance accumulator (Welford). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased; 0 with fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** Raises [Invalid_argument] when empty. *)

  val max : t -> float
  (** Raises [Invalid_argument] when empty. *)

  val merge : t -> t -> t
  (** Combine two accumulators (parallel Welford merge). *)
end
