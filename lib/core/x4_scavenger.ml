module U = Ccsim_util

type row = {
  update_cca : string;
  video_bitrate_mbps : float;
  video_rebuffer_s : float;
  update_mbps : float;
  mean_srtt_ms : float;
  utilization : float;
}

let rate_bps = U.Units.mbps 30.0

let warmup_s = 25.0

let run ?(duration = 90.0) ?(seed = 42) () =
  let cases =
    [ ("none", None); ("cubic", Some Scenario.Cubic); ("ledbat", Some Scenario.Ledbat) ]
  in
  List.map
    (fun (name, update_cca) ->
      let flows =
        Scenario.flow "video" ~cca:Scenario.Cubic ~app:Scenario.Video
        ::
        (match update_cca with
        | None -> []
        | Some cca -> [ Scenario.flow "update" ~cca ~app:Scenario.Bulk ~start:20.0 ])
      in
      let scenario =
        Scenario.make ~name:("x4/" ^ name) ~rate_bps ~delay_s:0.015 ~duration ~warmup:warmup_s
          ~seed flows
      in
      let result = Scenario.run scenario in
      let video = Results.find result "video" in
      let stats =
        match video.video with
        | Some s -> s
        | None -> invalid_arg "X4: video flow carries no ABR stats"
      in
      {
        update_cca = name;
        video_bitrate_mbps = U.Units.to_mbps stats.mean_bitrate_bps;
        video_rebuffer_s = stats.rebuffer_s;
        update_mbps =
          (match update_cca with
          | None -> 0.0
          | Some _ -> U.Units.to_mbps (Results.find result "update").goodput_bps);
        mean_srtt_ms = 1e3 *. video.mean_srtt_s;
        utilization = result.utilization;
      })
    cases

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b
    "X4: a software update over a scavenger CCA stops contending with video (30 Mbit/s access link)";
  let table =
    U.Table.create
      ~columns:
        [
          ("update via", U.Table.Left);
          ("video bitrate", U.Table.Right);
          ("rebuffer s", U.Table.Right);
          ("update Mbit/s", U.Table.Right);
          ("video srtt ms", U.Table.Right);
          ("util", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.update_cca;
          U.Table.cell_f r.video_bitrate_mbps;
          U.Table.cell_f r.video_rebuffer_s;
          U.Table.cell_f r.update_mbps;
          U.Table.cell_f r.mean_srtt_ms;
          U.Table.cell_f r.utilization;
        ])
    rows;
  Report.table b table
