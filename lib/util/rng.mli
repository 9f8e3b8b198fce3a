(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible bit-for-bit given a seed.
    The core generator is SplitMix64 (Steele, Lea & Flood 2014), which has
    a 64-bit state, passes BigCrush, and supports cheap stream splitting. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split rng] derives an independent generator from [rng], advancing
    [rng]. Use one split stream per stochastic component so that adding a
    component does not perturb the draws seen by others. *)

val bits64 : t -> int64 [@@ccsim.test_only "tests check the generator's raw stream"]
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val unit_float_into : t -> float array -> int -> unit
(** [unit_float_into rng slots i] stores in [slots.(i)] the draw
    [float rng 1.0] would return, without boxing it: a float returned
    across a module boundary is boxed when the caller is compiled with
    [-opaque], as dune's dev profile does. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli rng ~p] is true with probability [p] (clamped to [0,1]). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo < hi]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. Requires [mean > 0]. *)

val bounded_pareto : t -> shape:float -> scale:float -> cap:float -> float
(** Pareto truncated at [cap] by resampling the CDF (exact, not clipping). *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
