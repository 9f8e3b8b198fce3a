module U = Ccsim_util

type row = {
  victim : string;
  contender : string;
  solo_mbps : float;
  contended_mbps : float;
  throughput_harm : float;
  solo_srtt_ms : float;
  contended_srtt_ms : float;
  latency_harm : float;
}

let rate_bps = U.Units.mbps 48.0

let ccas =
  [ ("reno", Scenario.Reno); ("cubic", Scenario.Cubic); ("bbr", Scenario.Bbr) ]

let warmup_s = 10.0

let run ?(duration = 40.0) ?(seed = 42) () =
  let solo_result (name, cca) =
    let scenario =
      Scenario.make ~name:("x2/solo/" ^ name) ~rate_bps ~delay_s:0.025 ~duration ~warmup:warmup_s
        ~seed
        [ Scenario.flow "victim" ~cca ~app:Scenario.Bulk ]
    in
    let r = Scenario.run scenario in
    Results.find r "victim"
  in
  let solos = List.map (fun c -> (fst c, solo_result c)) ccas in
  List.concat_map
    (fun (victim_name, victim_cca) ->
      let solo = List.assoc victim_name solos in
      List.filter_map
        (fun (contender_name, contender_cca) ->
          if String.equal contender_name victim_name then None
          else begin
            let scenario =
              Scenario.make
                ~name:(Printf.sprintf "x2/%s-vs-%s" victim_name contender_name)
                ~rate_bps ~delay_s:0.025 ~duration ~warmup:warmup_s ~seed
                [
                  Scenario.flow "victim" ~cca:victim_cca ~app:Scenario.Bulk;
                  Scenario.flow "contender" ~cca:contender_cca ~app:Scenario.Bulk;
                ]
            in
            let r = Scenario.run scenario in
            let contended = Results.find r "victim" in
            (* The fair benchmark for a contended victim is half the
               link, so cap "solo" at the fair share as Ware et al. do
               for the bandwidth metric. *)
            let solo_tput = Float.min solo.Results.goodput_bps (rate_bps /. 2.0) in
            Some
              {
                victim = victim_name;
                contender = contender_name;
                solo_mbps = U.Units.to_mbps solo_tput;
                contended_mbps = U.Units.to_mbps contended.goodput_bps;
                throughput_harm =
                  U.Fairness.harm ~solo:solo_tput ~contended:contended.goodput_bps;
                solo_srtt_ms = 1e3 *. solo.mean_srtt_s;
                contended_srtt_ms = 1e3 *. contended.mean_srtt_s;
                latency_harm =
                  (if contended.mean_srtt_s > 0.0 then
                     U.Fairness.harm_lower_is_better ~solo:solo.mean_srtt_s
                       ~contended:contended.mean_srtt_s
                   else 0.0);
              }
          end)
        ccas)
    ccas

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "X2: Ware et al. harm across CCA pairings (48 Mbit/s FIFO bottleneck)";
  let table =
    U.Table.create
      ~columns:
        [
          ("victim", U.Table.Left);
          ("contender", U.Table.Left);
          ("solo Mbit/s", U.Table.Right);
          ("contended", U.Table.Right);
          ("tput harm", U.Table.Right);
          ("solo srtt", U.Table.Right);
          ("contended srtt", U.Table.Right);
          ("delay harm", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.victim;
          r.contender;
          U.Table.cell_f r.solo_mbps;
          U.Table.cell_f r.contended_mbps;
          U.Table.cell_pct r.throughput_harm;
          U.Table.cell_f r.solo_srtt_ms;
          U.Table.cell_f r.contended_srtt_ms;
          U.Table.cell_pct r.latency_harm;
        ])
    rows;
  Report.table b table
