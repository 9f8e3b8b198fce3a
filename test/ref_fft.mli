(* Test-only reference: the boxed radix-2 transform Ccsim_util.Fft
   used to be (see fft.mli for the kernel it checks). *)

val transform : Complex.t array -> Complex.t array
(** In-order FFT of an array whose length must be a power of two (raises
    [Invalid_argument] otherwise). Input is not modified. *)

val inverse : Complex.t array -> Complex.t array
(** Inverse FFT (normalized by 1/n). *)

val real_transform : float array -> Complex.t array
(** FFT of a real-valued signal (zero imaginary parts). *)

val magnitude_spectrum : float array -> float array
(** [magnitude_spectrum signal] is the per-bin magnitude |X_k| for
    k in [0, n/2], i.e. the one-sided spectrum. Length must be a power of
    two. *)

val frequency_bin : n:int -> sample_rate:float -> float -> int
(** Nearest bin index for a physical frequency. *)

val magnitude_at : float array -> sample_rate:float -> freq:float -> float
(** One-sided magnitude near frequency [freq]: the maximum magnitude over
    the bin holding [freq] and its two neighbours (tolerates spectral
    leakage when the pulse frequency falls between bins), normalized by
    n/2 so a pure sinusoid of amplitude A reports ~A. *)

val is_power_of_two : int -> bool

val next_power_of_two : int -> int
(** Smallest power of two >= the argument (argument must be positive). *)

val mean_removed : float array -> float array
(** Subtract the mean (removes the DC component before analysis). *)
