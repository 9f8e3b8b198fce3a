module M = Ccsim_measure
module U = Ccsim_util

type row = {
  penalty_scale : float;
  precision : float;
  recall : float;
  candidates_flagged : int;
  mean_changes_per_candidate : float;
}

let run ?(n = 3000) ?(seed = 42) () =
  let rng = U.Rng.create seed in
  let records = M.Ndt.generate ~rng ~n in
  List.map
    (fun penalty_scale ->
      let report = M.Mlab_analysis.analyze ~penalty_scale records in
      let accuracy =
        match M.Mlab_analysis.score_against_ground_truth report with
        | Some a -> a
        | None -> invalid_arg "A2: synthetic records must carry ground truth"
      in
      let candidate_changes =
        List.filter_map
          (fun (v : M.Mlab_analysis.verdict) ->
            if v.category = M.Mlab_analysis.Candidate then
              Some (float_of_int (List.length v.change_points))
            else None)
          report.verdicts
      in
      {
        penalty_scale;
        precision = accuracy.precision;
        recall = accuracy.recall;
        candidates_flagged = report.n_contention_consistent;
        mean_changes_per_candidate =
          (match candidate_changes with
          | [] -> 0.0
          | _ -> U.Stats.mean (Array.of_list candidate_changes));
      })
    [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "A2: PELT penalty scale vs Figure 2 detector accuracy (synthetic ground truth)";
  let table =
    U.Table.create
      ~columns:
        [
          ("penalty x", U.Table.Right);
          ("precision", U.Table.Right);
          ("recall", U.Table.Right);
          ("flagged", U.Table.Right);
          ("changes/candidate", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          U.Table.cell_f r.penalty_scale;
          U.Table.cell_f r.precision;
          U.Table.cell_f r.recall;
          string_of_int r.candidates_flagged;
          U.Table.cell_f r.mean_changes_per_candidate;
        ])
    rows;
  Report.table b table
