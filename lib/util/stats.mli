(** Descriptive statistics over float samples, as batch functions over
    arrays. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float [@@ccsim.test_only "reference statistic the tests' oracles use"]
(** Unbiased sample variance (n-1 denominator); 0 for singleton arrays.
    Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float [@@ccsim.test_only "reference statistic the tests' oracles use"]
(** Square root of {!variance}. *)

val minimum : float array -> float [@@ccsim.test_only "reference statistic the tests' oracles use"]
val maximum : float array -> float [@@ccsim.test_only "reference statistic the tests' oracles use"]

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics (the "linear" / type-7 method). Does not modify [xs].
    Raises [Invalid_argument] on an empty array or out-of-range [p]. *)

val median : float array -> float [@@ccsim.test_only "reference statistic the tests' oracles use"]
