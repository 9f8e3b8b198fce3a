module U = Ccsim_util
module Faults = Ccsim_faults

(* C1: is the paper's elasticity verdict stable under non-congestive
   chaos? A Nimbus probe shares a dumbbell with either elastic cross
   traffic (CUBIC + BBR bulk) or inelastic cross traffic (CBR UDP),
   while a canonical fault plan of increasing intensity batters the
   bottleneck. Faults cause loss, outages and delay that are *not*
   congestion; a robust detector must not let them flip the verdict. *)

type intensity = None_ | Mild | Moderate | Severe

let intensities = [ None_; Mild; Moderate; Severe ]

let intensity_to_string = function
  | None_ -> "none"
  | Mild -> "mild"
  | Moderate -> "moderate"
  | Severe -> "severe"

(* The canonical plan at each intensity, scaled to the run duration so
   short CI runs still see every fault fire. Times are fractions of the
   duration; the warmup (and the verdict window) starts at 10 s. *)
let plan_string ~duration intensity =
  let t frac = Printf.sprintf "%g" (duration *. frac) in
  match intensity with
  | None_ -> None
  | Mild ->
      Some
        (Printf.sprintf "loss at=%s dur=%s p=0.001; delay-spike at=%s dur=%s extra=0.005"
           (t 0.3) (t 0.2) (t 0.6) (t 0.1))
  | Moderate ->
      Some
        (Printf.sprintf
           "outage at=%s dur=0.3; burst-loss at=%s dur=%s p-enter=0.01 p-exit=0.3 loss-bad=0.05; \
            qdisc-reset at=%s"
           (t 0.35) (t 0.5) (t 0.25) (t 0.8))
  | Severe ->
      Some
        (Printf.sprintf
           "outage at=%s dur=1; corrupt at=%s dur=%s p=0.005; burst-loss at=%s dur=%s \
            p-enter=0.02 p-exit=0.2 loss-bad=0.15; delay-spike at=%s dur=%s extra=0.02; \
            qdisc-reset at=%s"
           (t 0.3) (t 0.4) (t 0.2) (t 0.5) (t 0.3) (t 0.7) (t 0.1) (t 0.85))

type row = {
  case : string;
  intensity : string;
  expected_elastic : bool;
  p90_elasticity : float;
  classified_elastic : bool;
  stable : bool;  (** verdict equals the fault-free verdict for this case *)
  probe_goodput_mbps : float;
  cross_goodput_mbps : float;
  fired : int;
  wire_lost : int;
  wire_corrupted : int;
}

let rate_bps = U.Units.mbps 48.0
let rtt_s = 0.1

let probe_spec =
  Scenario.flow "probe"
    ~cca:(Scenario.Nimbus { capacity_bps = rate_bps })
    ~app:Scenario.Bulk

let cases : (string * bool * Scenario.flow_spec list) list =
  [
    ( "cubic+bbr bulk",
      true,
      [
        Scenario.flow "cubic" ~cca:Scenario.Cubic ~app:Scenario.Bulk;
        Scenario.flow "bbr" ~cca:Scenario.Bbr ~app:Scenario.Bulk;
      ] );
    ("CBR UDP", false, [ Scenario.flow "cross" ~app:(Scenario.Cbr_udp { rate_bps = U.Units.mbps 12.0 }) ]);
  ]

let warmup_s = 10.0

let run ?(duration = 45.0) ?(seed = 42) () =
  List.concat_map
    (fun (case, expected_elastic, cross_flows) ->
      let baseline_verdict = ref None in
      List.map
        (fun intensity ->
          let bdp = U.Units.bdp_bytes ~rate_bps ~rtt_s in
          let scenario =
            Scenario.make
              ~name:(Printf.sprintf "c1/%s/%s" case (intensity_to_string intensity))
              ~rate_bps ~delay_s:(rtt_s /. 2.0) ~duration ~warmup:warmup_s ~seed
              ~qdisc:(Scenario.Fifo { limit_bytes = Some (2 * bdp) })
              (probe_spec :: cross_flows)
          in
          (* The experiment owns the chaos: arm its own plan (or
             explicitly disarm, so an outer --faults cannot leak into
             the baseline rows and corrupt the stability comparison). *)
          let armed =
            match plan_string ~duration intensity with
            | None -> None
            | Some s -> Some { Faults.Plan.plan = Faults.Plan.parse_exn s; seed = seed + 1 }
          in
          let result = Faults.Plan.with_armed armed (fun () -> Scenario.run scenario) in
          let probe = Results.find result "probe" in
          let handle =
            match probe.nimbus with
            | Some h -> h
            | None -> invalid_arg "C1: probe flow has no nimbus handle"
          in
          let steady = U.Timeseries.between handle.elasticity ~lo:scenario.warmup ~hi:duration in
          (* The verdict is computed over fault-quiet samples: while an
             outage, loss burst or delay spike is live (plus a guard for
             recovery) there is no meaningful cross-traffic response to
             measure, and the paper's detector would be reading chaos,
             not congestion. The plan itself tells us when to look away. *)
          let guard_s = 2.0 in
          let masked =
            match armed with
            | None -> []
            | Some a ->
                List.map
                  (fun (lo_s, hi_s) -> (lo_s -. guard_s, hi_s +. guard_s))
                  (Faults.Plan.windows a.Faults.Plan.plan)
          in
          let quiet t_s = List.for_all (fun (lo_s, hi_s) -> t_s < lo_s || t_s > hi_s) masked in
          let values =
            let ts = U.Timeseries.times steady and vs = U.Timeseries.values steady in
            let kept = ref [] in
            Array.iteri (fun i t_s -> if quiet t_s then kept := vs.(i) :: !kept) ts;
            match !kept with
            | [] -> U.Timeseries.values steady (* fully masked: fall back to all samples *)
            | l -> Array.of_list (List.rev l)
          in
          let v = Ccsim_measure.Elasticity.verdict values in
          let classified_elastic = v.elastic in
          (match !baseline_verdict with
          | None -> baseline_verdict := Some classified_elastic
          | Some _ -> ());
          let cross_goodput =
            List.fold_left
              (fun acc (f : Results.flow_result) ->
                if String.equal f.label "probe" then acc else acc +. f.goodput_bps)
              0.0 result.flows
          in
          let fired, wire_lost, wire_corrupted =
            match result.faults with
            | None -> (0, 0, 0)
            | Some f -> (f.fired, f.wire_lost, f.wire_corrupted)
          in
          {
            case;
            intensity = intensity_to_string intensity;
            expected_elastic;
            p90_elasticity = v.p90;
            classified_elastic;
            stable = (match !baseline_verdict with Some b -> classified_elastic = b | None -> true);
            probe_goodput_mbps = U.Units.to_mbps probe.goodput_bps;
            cross_goodput_mbps = U.Units.to_mbps cross_goodput;
            fired;
            wire_lost;
            wire_corrupted;
          })
        intensities)
    cases

let render rows =
  Report.with_buf @@ fun b ->
  let table =
    U.Table.create
      ~columns:
        [
          ("cross traffic", U.Table.Left);
          ("faults", U.Table.Left);
          ("p90 elast", U.Table.Right);
          ("verdict", U.Table.Left);
          ("expected", U.Table.Left);
          ("stable", U.Table.Left);
          ("probe Mbit/s", U.Table.Right);
          ("cross Mbit/s", U.Table.Right);
          ("fired", U.Table.Right);
          ("wire lost", U.Table.Right);
        ]
  in
  List.iter
    (fun r ->
      U.Table.add_row table
        [
          r.case;
          r.intensity;
          U.Table.cell_f r.p90_elasticity;
          (if r.classified_elastic then "elastic" else "inelastic");
          (if r.expected_elastic then "elastic" else "inelastic");
          (if r.stable then "yes" else "NO");
          U.Table.cell_f r.probe_goodput_mbps;
          U.Table.cell_f r.cross_goodput_mbps;
          string_of_int r.fired;
          string_of_int (r.wire_lost + r.wire_corrupted);
        ])
    rows;
  Report.line b "C1: elasticity-verdict stability under canonical fault plans";
  Printf.bprintf b
    "(48 Mbit/s dumbbell, 100 ms RTT; faults are non-congestive chaos — outage,\n\
    \ burst loss, corruption, delay spikes, qdisc resets — a stable verdict must\n\
    \ match the fault-free row of its case)\n";
  Report.table b table
