module U = Ccsim_util
module M = Ccsim_measure

type output = {
  report : M.Mlab_analysis.report;
  accuracy : M.Mlab_analysis.accuracy option;
}

let run ?(n = 9984) ?(seed = 42) () =
  let rng = U.Rng.create seed in
  let records = M.Ndt.generate ~rng ~n in
  (* Mirror each contention candidate's throughput trace into the
     ambient timeline (exact values, one series per flow), so `ccsim
     analyze` can rerun the change-point detector offline over a
     `--series` export and reproduce this run's verdicts. *)
  (match (Ccsim_obs.Scope.ambient ()).Ccsim_obs.Scope.timeline with
  | Some tl ->
      List.iter
        (fun (r : M.Ndt.record) ->
          if M.Mlab_analysis.categorize r = M.Mlab_analysis.Candidate then begin
            let s =
              Ccsim_obs.Timeline.series tl
                ~labels:[ ("flow", string_of_int r.id) ]
                "ndt_throughput_mbps"
            in
            Array.iteri
              (fun i v ->
                Ccsim_obs.Timeline.record s ~time:(float_of_int i *. r.interval_s) ~value:v)
              r.throughput_mbps
          end)
        records
  | None -> ());
  let report = M.Mlab_analysis.analyze records in
  { report; accuracy = M.Mlab_analysis.score_against_ground_truth report }

let render { report; accuracy } =
  Report.with_buf @@ fun b ->
  Report.line b "Figure 2: M-Lab NDT categorization and throughput change analysis";
  Printf.bprintf b "(synthetic NDT population of %d flows; see DESIGN.md for the substitution)\n"
    report.total;
  let table =
    U.Table.create
      ~columns:[ ("category", U.Table.Left); ("flows", U.Table.Right); ("share", U.Table.Right) ]
  in
  let pct k = U.Table.cell_pct (float_of_int k /. float_of_int (max 1 report.total)) in
  U.Table.add_row table [ "application-limited"; string_of_int report.n_app_limited; pct report.n_app_limited ];
  U.Table.add_row table [ "receiver-limited"; string_of_int report.n_rwnd_limited; pct report.n_rwnd_limited ];
  U.Table.add_row table [ "cellular"; string_of_int report.n_cellular; pct report.n_cellular ];
  U.Table.add_row table [ "contention candidates"; string_of_int report.n_candidates; pct report.n_candidates ];
  U.Table.add_rule table;
  U.Table.add_row table
    [
      "with contention-consistent shifts";
      string_of_int report.n_contention_consistent;
      pct report.n_contention_consistent;
    ];
  Report.table b table;
  (match report.change_count_cdf with
  | Some cdf ->
      Printf.bprintf b "(b) change points per candidate flow: p50=%.0f p90=%.0f max=%.0f\n"
        (U.Cdf.quantile cdf 0.5) (U.Cdf.quantile cdf 0.9) (U.Cdf.max_value cdf)
  | None -> ());
  (match report.shift_cdf with
  | Some cdf ->
      Printf.bprintf b
        "(c) largest level shift / mean throughput among candidates: p50=%.2f p90=%.2f\n"
        (U.Cdf.quantile cdf 0.5) (U.Cdf.quantile cdf 0.9)
  | None -> ());
  (match accuracy with
  | Some a ->
      Printf.bprintf b
        "detector vs ground truth (positives = genuinely contended): precision=%.2f recall=%.2f (tp=%d fp=%d fn=%d tn=%d)\n"
        a.precision a.recall a.true_positives a.false_positives a.false_negatives
        a.true_negatives
  | None -> ())
