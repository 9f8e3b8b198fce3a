module U = Ccsim_util

type row = {
  mean_size_bytes : float;
  spawned : int;
  completed : int;
  fraction_in_iw : float;
  fct_p50_s : float;
  fct_p99_s : float;
}

let warmup_s = 5.0

let run ?(duration = 60.0) ?(seed = 42) () =
  let sizes = [ 10_000.0; 30_000.0; 100_000.0; 300_000.0; 1_000_000.0 ] in
  List.map
    (fun mean_size_bytes ->
      let scenario =
        Scenario.make
          ~name:(Printf.sprintf "e3/mean=%.0fkB" (mean_size_bytes /. 1e3))
          ~rate_bps:(U.Units.mbps 50.0) ~delay_s:0.02 ~duration ~warmup:warmup_s ~seed
          ~short_flows:{ Scenario.arrival_rate = 10.0; mean_size_bytes; sf_stop = Some (duration -. 5.0) }
          []
      in
      let result = Scenario.run scenario in
      match result.short_flow_stats with
      | None -> invalid_arg "E3: scenario has no short-flow stats"
      | Some s ->
          let q p =
            match s.completion_times with
            | Some cdf -> U.Cdf.quantile cdf p
            | None -> 0.0
          in
          {
            mean_size_bytes;
            spawned = s.spawned;
            completed = s.completed;
            fraction_in_iw = s.fraction_in_initial_window;
            fct_p50_s = q 0.5;
            fct_p99_s = q 0.99;
          })
    sizes

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "E3: short flows vs the initial congestion window (50 Mbit/s access link)";
  let table =
    U.Table.create
      ~columns:
        [
          ("mean size", U.Table.Right);
          ("flows", U.Table.Right);
          ("completed", U.Table.Right);
          ("fit in IW10", U.Table.Right);
          ("FCT p50 s", U.Table.Right);
          ("FCT p99 s", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          Printf.sprintf "%.0f kB" (r.mean_size_bytes /. 1e3);
          string_of_int r.spawned;
          string_of_int r.completed;
          U.Table.cell_pct r.fraction_in_iw;
          U.Table.cell_f ~decimals:3 r.fct_p50_s;
          U.Table.cell_f ~decimals:3 r.fct_p99_s;
        ])
    rows;
  Report.table b table
