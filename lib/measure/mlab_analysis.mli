(** The paper's §3.1 passive-measurement pipeline over NDT records.

    Steps, as the paper describes them:
    + categorize flows as application-limited ([AppLimited > 0]) or
      receiver-limited ([RWndLimited > 0]) and set them aside, along
      with flows inferred to use cellular links;
    + for the remaining flows, search the throughput trace for level
      shifts (offline change-point detection) that could indicate a
      competing flow arriving or leaving;
    + report what fraction of flows even *could* have experienced CCA
      contention, and of those, how many show contention-consistent
      changes.

    When records carry ground truth (synthetic data), the verdicts are
    scored for precision/recall too. *)

type category = App_limited | Rwnd_limited | Cellular | Candidate

type verdict = {
  record : Ndt.record;
  category : category;
  change_points : int list;  (** only computed for [Candidate] flows *)
  largest_shift_mbps : float;
  contention_consistent : bool;
      (** at least one change point with a level shift of at least
          0.2 x the flow's mean throughput *)
}

type report = {
  total : int;
  n_app_limited : int;
  n_rwnd_limited : int;
  n_cellular : int;
  n_candidates : int;
  n_contention_consistent : int;
  candidate_fraction : float;  (** candidates / total *)
  consistent_fraction_of_total : float;
  change_count_cdf : Ccsim_util.Cdf.t option;  (** per candidate flow *)
  shift_cdf : Ccsim_util.Cdf.t option;  (** largest shift / mean, per candidate *)
  verdicts : verdict list;
}

val categorize : Ndt.record -> category
(** The paper's rule: app- or receiver-window-limited when that field
    is greater than zero (of the lifetime fraction). *)

val analyze_record : Ndt.record -> verdict
(** A candidate is contention-consistent on a level shift of at least
    20% of its mean throughput. *)

val analyze : ?penalty_scale:float -> Ndt.record list -> report
(** [penalty_scale] multiplies the change-point detector's default
    penalty (1.0 = PELT's BIC default; used by the A2 ablation). *)

type accuracy = {
  true_positives : int;
  false_positives : int;
  false_negatives : int;
  true_negatives : int;
  precision : float;
  recall : float;
}

val score_against_ground_truth : report -> accuracy option
(** Treats [Gt_contended] as the positive class among candidate flows;
    [None] when no record carries ground truth. *)

val pp_report : Format.formatter -> report -> unit
