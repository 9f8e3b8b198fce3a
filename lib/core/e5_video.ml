module U = Ccsim_util

type row = {
  capacity_mbps : float;
  with_bulk : bool;
  video_bitrate_mbps : float;
  video_goodput_mbps : float;
  rebuffer_s : float;
  bulk_goodput_mbps : float;
  utilization : float;
}

let warmup_s = 15.0

let run ?(duration = 60.0) ?(seed = 42) () =
  let capacities = [ 10.0; 20.0; 40.0; 80.0 ] in
  List.concat_map
    (fun capacity ->
      List.map
        (fun with_bulk ->
          let flows =
            Scenario.flow "video" ~cca:Scenario.Cubic ~app:Scenario.Video
            ::
            (if with_bulk then
               [ Scenario.flow "bulk" ~cca:Scenario.Cubic ~app:Scenario.Bulk ~start:10.0 ]
             else [])
          in
          let scenario =
            Scenario.make
              ~name:(Printf.sprintf "e5/%gM%s" capacity (if with_bulk then "+bulk" else ""))
              ~rate_bps:(U.Units.mbps capacity) ~delay_s:0.02 ~duration ~warmup:warmup_s ~seed flows
          in
          let result = Scenario.run scenario in
          let video = Results.find result "video" in
          let stats =
            match video.video with
            | Some s -> s
            | None -> invalid_arg "E5: video flow carries no ABR stats"
          in
          {
            capacity_mbps = capacity;
            with_bulk;
            video_bitrate_mbps = U.Units.to_mbps stats.mean_bitrate_bps;
            video_goodput_mbps = U.Units.to_mbps video.goodput_bps;
            rebuffer_s = stats.rebuffer_s;
            bulk_goodput_mbps =
              (if with_bulk then U.Units.to_mbps (Results.find result "bulk").goodput_bps
               else 0.0);
            utilization = result.utilization;
          })
        [ false; true ])
    capacities

let render rows =
  Report.with_buf @@ fun b ->
  Report.line b "E5: ABR video bounds its own demand (ladder top 25 Mbit/s)";
  let table =
    U.Table.create
      ~columns:
        [
          ("capacity", U.Table.Right);
          ("bulk?", U.Table.Left);
          ("chosen bitrate", U.Table.Right);
          ("video Mbit/s", U.Table.Right);
          ("rebuffer s", U.Table.Right);
          ("bulk Mbit/s", U.Table.Right);
          ("util", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          Printf.sprintf "%.0f M" r.capacity_mbps;
          (if r.with_bulk then "yes" else "no");
          U.Table.cell_f r.video_bitrate_mbps;
          U.Table.cell_f r.video_goodput_mbps;
          U.Table.cell_f r.rebuffer_s;
          U.Table.cell_f r.bulk_goodput_mbps;
          U.Table.cell_f r.utilization;
        ])
    rows;
  Report.table b table
