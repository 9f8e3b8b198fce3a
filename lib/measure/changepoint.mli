(** Offline change-point detection for piecewise-constant signals.

    Implements PELT (exact minimisation of penalised least-squares
    segmentation cost, Killick et al. 2012), an exact method from
    Truong et al.'s review [60], which the paper cites for its M-Lab
    throughput analysis. The cost of a segment is its sum of squared
    deviations from the segment mean (the L2 / piecewise-constant-mean
    model). *)

val segment_cost : prefix:float array -> prefix_sq:float array -> int -> int -> float
[@@ccsim.test_only "a part of verdict, tested on its own"]
(** [segment_cost ~prefix ~prefix_sq i j] is the L2 cost of the
    half-open segment [\[i, j)] given prefix sums of the signal and its
    squares ([prefix.(k)] = sum of the first [k] values). *)

val prefix_sums : float array -> float array * float array
[@@ccsim.test_only "a part of verdict, tested on its own"]
(** Prefix sums of values and squared values, each of length n+1. *)

val pelt : float array -> int list [@@ccsim.test_only "a part of verdict, tested on its own"]
(** Change-point indices (each the start of a new segment, strictly
    between 0 and n), in increasing order, at the {!default_penalty}.
    Empty and singleton signals yield no change points. *)

val default_penalty : float array -> float
(** BIC-style penalty: 2 sigma^2 log n, with sigma^2 estimated robustly
    from the median absolute successive difference (so level shifts do
    not inflate it). Falls back to a small positive value for
    near-constant signals. *)

val segment_means : float array -> int list -> (int * int * float) list
[@@ccsim.test_only "a part of verdict, tested on its own"]
(** [(start, stop, mean)] for each segment induced by the change points
    (stop exclusive). *)

val largest_shift : float array -> int list -> float
[@@ccsim.test_only "a part of verdict, tested on its own"]
(** Largest absolute difference between adjacent segment means; 0 when
    there are no change points. *)

type verdict = {
  change_points : int list;  (** {!pelt}'s change points *)
  largest_shift : float;  (** {!largest_shift} over them *)
  contention_consistent : bool;
}

val verdict : ?penalty:float -> shift_threshold:float -> mean:float -> float array -> verdict
(** Figure 2's contention rule, shared by the M-Lab pipeline and the
    offline [analyze] reader: run {!pelt} (with [penalty], default
    {!default_penalty}), take the largest level shift, and call the flow
    contention-consistent when it has at least one change point and the
    shift is at least [shift_threshold] x max(1e-9, [mean]). *)
