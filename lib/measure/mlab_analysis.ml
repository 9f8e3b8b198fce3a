module U = Ccsim_util

type category = App_limited | Rwnd_limited | Cellular | Candidate

type verdict = {
  record : Ndt.record;
  category : category;
  change_points : int list;
  largest_shift_mbps : float;
  contention_consistent : bool;
}

type report = {
  total : int;
  n_app_limited : int;
  n_rwnd_limited : int;
  n_cellular : int;
  n_candidates : int;
  n_contention_consistent : int;
  candidate_fraction : float;
  consistent_fraction_of_total : float;
  change_count_cdf : U.Cdf.t option;
  shift_cdf : U.Cdf.t option;
  verdicts : verdict list;
}

(* The paper's rule: a limited-time field greater than zero. *)
let categorize (r : Ndt.record) =
  if r.app_limited_frac > 0.0 then App_limited
  else if r.rwnd_limited_frac > 0.0 then Rwnd_limited
  else if r.access = Ndt.Cellular then Cellular
  else Candidate

(* A level shift of at least 20% of the flow's mean throughput. *)
let shift_threshold = 0.2

let analyze_record_with ?penalty_scale (r : Ndt.record) =
  let category = categorize r in
  match category with
  | App_limited | Rwnd_limited | Cellular ->
      {
        record = r;
        category;
        change_points = [];
        largest_shift_mbps = 0.0;
        contention_consistent = false;
      }
  | Candidate ->
      let penalty =
        Option.map
          (fun scale -> scale *. Changepoint.default_penalty r.throughput_mbps)
          penalty_scale
      in
      let v =
        Changepoint.verdict ?penalty ~shift_threshold ~mean:r.mean_throughput_mbps
          r.throughput_mbps
      in
      {
        record = r;
        category;
        change_points = v.change_points;
        largest_shift_mbps = v.largest_shift;
        contention_consistent = v.contention_consistent;
      }

let analyze_record r = analyze_record_with r

let analyze ?penalty_scale records =
  let verdicts = List.map (analyze_record_with ?penalty_scale) records in
  let count p = List.length (List.filter p verdicts) in
  let total = List.length verdicts in
  let n_candidates = count (fun v -> v.category = Candidate) in
  let n_consistent = count (fun v -> v.contention_consistent) in
  let candidates = List.filter (fun v -> v.category = Candidate) verdicts in
  let cdf_of f =
    match candidates with
    | [] -> None
    | _ -> Some (U.Cdf.of_samples (Array.of_list (List.map f candidates)))
  in
  {
    total;
    n_app_limited = count (fun v -> v.category = App_limited);
    n_rwnd_limited = count (fun v -> v.category = Rwnd_limited);
    n_cellular = count (fun v -> v.category = Cellular);
    n_candidates;
    n_contention_consistent = n_consistent;
    candidate_fraction = (if total = 0 then 0.0 else float_of_int n_candidates /. float_of_int total);
    consistent_fraction_of_total =
      (if total = 0 then 0.0 else float_of_int n_consistent /. float_of_int total);
    change_count_cdf = cdf_of (fun v -> float_of_int (List.length v.change_points));
    shift_cdf =
      cdf_of (fun v -> v.largest_shift_mbps /. Float.max 1e-9 v.record.mean_throughput_mbps);
    verdicts;
  }

type accuracy = {
  true_positives : int;
  false_positives : int;
  false_negatives : int;
  true_negatives : int;
  precision : float;
  recall : float;
}

let score_against_ground_truth report =
  let labelled =
    List.filter_map
      (fun v ->
        match v.record.Ndt.ground_truth with
        | Some gt -> Some (v, gt)
        | None -> None)
      report.verdicts
  in
  match labelled with
  | [] -> None
  | _ ->
      let is_positive = function Ndt.Gt_contended _ -> true | _ -> false in
      let tally (tp, fp, fn, tn) (v, gt) =
        match (v.contention_consistent, is_positive gt) with
        | true, true -> (tp + 1, fp, fn, tn)
        | true, false -> (tp, fp + 1, fn, tn)
        | false, true -> (tp, fp, fn + 1, tn)
        | false, false -> (tp, fp, fn, tn + 1)
      in
      let tp, fp, fn, tn = List.fold_left tally (0, 0, 0, 0) labelled in
      let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
      Some
        {
          true_positives = tp;
          false_positives = fp;
          false_negatives = fn;
          true_negatives = tn;
          precision = ratio tp fp;
          recall = ratio tp fn;
        }

let pp_report ppf r =
  Format.fprintf ppf
    "flows=%d app-limited=%d (%.1f%%) rwnd-limited=%d (%.1f%%) cellular=%d (%.1f%%)@ \
     candidates=%d (%.1f%%) contention-consistent=%d (%.1f%% of all)"
    r.total r.n_app_limited
    (100.0 *. float_of_int r.n_app_limited /. float_of_int (max 1 r.total))
    r.n_rwnd_limited
    (100.0 *. float_of_int r.n_rwnd_limited /. float_of_int (max 1 r.total))
    r.n_cellular
    (100.0 *. float_of_int r.n_cellular /. float_of_int (max 1 r.total))
    r.n_candidates
    (100.0 *. r.candidate_fraction)
    r.n_contention_consistent
    (100.0 *. r.consistent_fraction_of_total)
