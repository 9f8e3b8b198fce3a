(** The spectral magnitude of a real signal near one frequency.

    The Nimbus elasticity detector reads its cross-traffic estimate's
    spectrum at the probe's pulse frequency: three bins of a radix-2
    decimation-in-time FFT. This module computes exactly those bins,
    with no external dependencies and without allocating.

    {b Bit identity.} [magnitude_at] returns the same bits as a full
    boxed [Complex.t] transform of the mean-removed signal followed by
    the three-bin read below (test/ref_fft.ml keeps that transform as the
    oracle): the same left-to-right mean, bit-reversal order and stages,
    twiddles by the same recurrence, each butterfly doing
    [Complex.mul]/[add]/[sub]'s float operations in their order, and
    [Float.hypot] as the norm. It skips only the butterflies that feed no
    bin it reads. *)

type plan
(** Scratch arrays and per-stage twiddles for one transform size. A
    plan is mutable scratch: it belongs to one owner (one Nimbus probe,
    one scoring call) and is never shared between domains. *)

val plan : int -> plan
(** [plan n] for a power-of-two [n]; raises [Invalid_argument]
    otherwise. *)

val magnitude_at : plan -> float array -> sample_rate:float -> freq:float -> float
(** [magnitude_at p s ~sample_rate ~freq] removes [s]'s mean and returns
    the largest one-sided magnitude over the bin nearest [freq] and its
    two neighbours (tolerating leakage when [freq] falls between bins),
    clamped to bins [0, n/2] and normalized by n/2, so a pure sinusoid of
    amplitude A reports ~A. [s] must have the plan's length (raises
    [Invalid_argument] otherwise); it is not modified. Allocates nothing
    but its boxed result. *)

val is_power_of_two : int -> bool [@@ccsim.test_only "tests check the FFT's size guard"]
