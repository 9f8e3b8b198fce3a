(* P1: how prevalent is CCA contention across a user population?

   The paper's core claim is that the prerequisites for CCA contention —
   a saturated shared bottleneck, at least two demanding flows, and a
   queue signal doing the allocating — rarely line up for real users.
   This experiment instantiates that question at population scale with
   the fluid backend: every user is an access link with a service-plan
   capacity, carrying a handful of flows with heavy-tailed demand caps
   and exponential on/off activity, drawn from a content-provider-like
   CCA mix. We integrate the whole population and report the fraction
   of users whose access link ever spent meaningful time contended.
   The population runs on a Sim of its own, stepped by Fluid_driver
   with no couplings, and its aggregate series are that sim's timeline
   probes.

   The hybrid backend additionally runs one "observed household":
   packet-level foreground transfers (CUBIC and Reno bulk) through a
   shared packet link coupled to a fluid aggregate of background flows
   drawn from the same demand model — the fluid share presents as cross
   traffic to the packet flows and vice versa (Fluid_driver). *)

module U = Ccsim_util
module Fl = Ccsim_fluid
module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Tcp = Ccsim_tcp
module App = Ccsim_app

type backend = Fluid | Hybrid

let backend_of_string = function
  | "fluid" -> Some Fluid
  | "hybrid" -> Some Hybrid
  | _ -> None

(* Service-plan mix: weights loosely follow access-speed distributions
   in M-Lab-style datasets — most users on mid-tier plans, a tail on
   slow DSL-like and fast FTTH-like plans. *)
let tiers =
  [ ("25M", 25.0, 0.25); ("100M", 100.0, 0.45); ("300M", 300.0, 0.20); ("1G", 1000.0, 0.10) ]

(* Content-provider CCA mix (rough Internet shares: CUBIC default,
   BBR at the large providers, legacy Reno). *)
let cca_mix = [ (Fl.Fluid_model.Cubic, 0.55); (Fl.Fluid_model.Bbr, 0.30); (Fl.Fluid_model.Reno, 0.15) ]

let duration_s = 30.0
let warmup_s = 5.0
let dt_s = 0.02

(* A user counts as having experienced contention when its access link
   accumulated at least this much contended time over the run. *)
let contended_threshold_s = 0.5

type tier_row = {
  tier : string;
  users : int;
  flows : int;
  contended : int;  (** users past {!contended_threshold_s} *)
  util : float;  (** mean served utilization of the tier's links *)
}

type hybrid_stats = {
  fg_cubic_mbps : float;
  fg_reno_mbps : float;
  bg_served_mbps : float;
  coupled_link_mbps : float;
  coupled_contended_s : float;
}

type result = {
  backend : backend;
  n : int;
  seed : int;
  tier_rows : tier_row list;
  prevalence : float;  (** fraction of users in contention, overall *)
  mean_contended_frac : float;  (** mean fraction of run time contended *)
  drop_frac : float;  (** population-wide dropped/offered bytes *)
  hybrid : hybrid_stats option;
}

let pick_weighted rng choices =
  let u = U.Rng.float rng 1.0 in
  let rec go acc = function
    | [] -> invalid_arg "P1_prevalence.pick_weighted: empty"
    | [ (v, _) ] -> v
    | (v, w) :: rest -> if u < acc +. w then v else go (acc +. w) rest
  in
  go 0.0 choices

(* Build the population; returns the per-user (link, tier index) and the
   per-tier flow counts. *)
let build_population engine rng ~n =
  let tier_arr = Array.of_list tiers in
  let tier_choices = List.mapi (fun i (_, _, w) -> (i, w)) tiers in
  let users =
    Array.init n (fun _ ->
        let ti = pick_weighted rng tier_choices in
        let _, plan_mbps, _ = tier_arr.(ti) in
        let plan = U.Units.mbps plan_mbps in
        (* ~50 ms worth of buffer at the plan rate *)
        let buffer_bytes = Int.max 9000 (int_of_float (0.05 *. plan /. 8.0)) in
        let link = Fl.Fluid_engine.add_link engine ~capacity_bps:plan ~buffer_bytes in
        let nflows = 1 + U.Rng.int rng 3 in
        for _ = 1 to nflows do
          let model = pick_weighted rng cca_mix in
          let rtt_base_s = U.Rng.uniform rng ~lo:0.015 ~hi:0.08 in
          (* Heavy-tailed per-flow demand: Pareto(1.2) from 2 Mbit/s,
             capped at 1.5 plans so aggregate demand sometimes — but
             not usually — saturates the access link. *)
          let cap_bps =
            U.Rng.bounded_pareto rng ~shape:1.2 ~scale:(U.Units.mbps 2.0)
              ~cap:(1.5 *. plan)
          in
          let on_s = U.Rng.uniform rng ~lo:2.0 ~hi:8.0 in
          let off_s = U.Rng.uniform rng ~lo:4.0 ~hi:24.0 in
          let start_active = U.Rng.bernoulli rng ~p:(on_s /. (on_s +. off_s)) in
          ignore
            (Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s ~cap_bps
               ~on_off_s:(on_s, off_s) ~start_active ())
        done;
        (link, ti, nflows))
  in
  users

let summarize backend ~n ~seed engine users hybrid =
  let ntier = List.length tiers in
  let t_users = Array.make ntier 0 in
  let t_flows = Array.make ntier 0 in
  let t_contended = Array.make ntier 0 in
  let t_util = Array.make ntier 0.0 in
  let contended_total = ref 0 in
  let contended_time = ref 0.0 in
  let horizon = Fl.Fluid_engine.now_s engine in
  Array.iter
    (fun (link, ti, nflows) ->
      let contended_s = Fl.Fluid_engine.link_contended_s engine link in
      let served = Fl.Fluid_engine.link_served_bytes engine link in
      t_users.(ti) <- t_users.(ti) + 1;
      t_flows.(ti) <- t_flows.(ti) + nflows;
      t_util.(ti) <-
        t_util.(ti)
        +. (served *. 8.0 /. (horizon *. Fl.Fluid_engine.link_capacity_bps engine link));
      contended_time := !contended_time +. (contended_s /. horizon);
      if contended_s >= contended_threshold_s then begin
        t_contended.(ti) <- t_contended.(ti) + 1;
        incr contended_total
      end)
    users;
  let totals = Fl.Fluid_engine.totals engine in
  let tier_rows =
    List.mapi
      (fun ti (tier, _, _) ->
        {
          tier;
          users = t_users.(ti);
          flows = t_flows.(ti);
          contended = t_contended.(ti);
          util = (if t_users.(ti) = 0 then 0.0 else t_util.(ti) /. float_of_int t_users.(ti));
        })
      tiers
  in
  {
    backend;
    n;
    seed;
    tier_rows;
    prevalence = float_of_int !contended_total /. float_of_int (Int.max 1 n);
    mean_contended_frac = !contended_time /. float_of_int (Int.max 1 n);
    drop_frac =
      (if totals.Fl.Fluid_engine.offered_bytes <= 0.0 then 0.0
       else totals.Fl.Fluid_engine.dropped_bytes /. totals.Fl.Fluid_engine.offered_bytes);
    hybrid;
  }

(* The observed household (hybrid backend): two packet-level bulk flows
   against a fluid aggregate of background flows on one shared link. *)
let run_household ~seed =
  let sim = Sim.create () in
  Sim.add_timeline_tags sim [ ("scenario", "p1/household") ];
  let rate = U.Units.mbps 100.0 in
  let limit_bytes = 4 * U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.04 in
  let qdisc = Net.Fifo.create ~limit_bytes () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.02 ~qdisc () in
  let engine = Fl.Fluid_engine.create ~dt_s ~warmup_s ~seed:(seed + 1) () in
  let fl = Fl.Fluid_engine.add_link engine ~capacity_bps:rate ~buffer_bytes:limit_bytes in
  let rng = U.Rng.create (seed + 2) in
  for _ = 1 to 16 do
    let model = pick_weighted rng cca_mix in
    let rtt_base_s = U.Rng.uniform rng ~lo:0.02 ~hi:0.06 in
    let cap_bps = U.Rng.bounded_pareto rng ~shape:1.2 ~scale:(U.Units.mbps 2.0) ~cap:(0.5 *. rate) in
    let on_s = U.Rng.uniform rng ~lo:2.0 ~hi:8.0 in
    let off_s = U.Rng.uniform rng ~lo:4.0 ~hi:24.0 in
    let start_active = U.Rng.bernoulli rng ~p:(on_s /. (on_s +. off_s)) in
    ignore
      (Fl.Fluid_engine.add_flow engine ~link:fl ~model ~rtt_base_s ~cap_bps
         ~on_off_s:(on_s, off_s) ~start_active ())
  done;
  let driver = Fl.Fluid_driver.attach sim engine ~couplings:[ (fl, topo.Net.Topology.bottleneck) ] in
  let conn_cubic =
    Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) ()
  in
  let conn_reno = Tcp.Connection.establish topo ~flow:1 ~cca:(Ccsim_cca.Reno.create ()) () in
  ignore (App.Bulk.start sim ~sender:conn_cubic.Tcp.Connection.sender ());
  ignore (App.Bulk.start sim ~sender:conn_reno.Tcp.Connection.sender ());
  let cubic_at_warmup = ref 0 and reno_at_warmup = ref 0 in
  ignore
    (Sim.schedule_at sim ~time:warmup_s (fun () ->
         cubic_at_warmup := Tcp.Receiver.bytes_received conn_cubic.Tcp.Connection.receiver;
         reno_at_warmup := Tcp.Receiver.bytes_received conn_reno.Tcp.Connection.receiver));
  Sim.run ~until:duration_s sim;
  Fl.Fluid_driver.catch_up driver ~until_s:duration_s;
  let window = duration_s -. warmup_s in
  let goodput conn at_warmup =
    float_of_int (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver - at_warmup)
    *. 8.0 /. window
  in
  {
    fg_cubic_mbps = U.Units.to_mbps (goodput conn_cubic !cubic_at_warmup);
    fg_reno_mbps = U.Units.to_mbps (goodput conn_reno !reno_at_warmup);
    bg_served_mbps =
      U.Units.to_mbps (Fl.Fluid_engine.link_served_bytes engine fl *. 8.0 /. duration_s);
    coupled_link_mbps = U.Units.to_mbps rate;
    coupled_contended_s = Fl.Fluid_engine.link_contended_s engine fl;
  }

(* The population's aggregate series. The timeline samples probes in
   registration order, so the first one reads the engine's aggregate
   (one pass over the links) and the other four reuse it. *)
let add_population_probes sim engine =
  let labels = [ ("engine", "fluid") ] in
  let last = ref (Fl.Fluid_engine.aggregate engine) in
  let probe name value = Sim.add_timeline_probe sim ~labels name (fun () -> value !last) in
  Sim.add_timeline_probe sim ~labels "fluid_arrival_bps" (fun () ->
      last := Fl.Fluid_engine.aggregate engine;
      !last.Fl.Fluid_engine.arrival_bps);
  probe "fluid_served_bps" (fun a -> a.Fl.Fluid_engine.served_bps);
  probe "fluid_queue_bytes" (fun a -> a.Fl.Fluid_engine.queue_bytes);
  probe "fluid_active_flows" (fun a -> float_of_int a.Fl.Fluid_engine.active_flows);
  probe "fluid_contended_links" (fun a -> float_of_int a.Fl.Fluid_engine.contended_links)

let run ?(n = 2000) ?(seed = 42) ?(backend = Fluid) () =
  if n < 1 then invalid_arg "P1_prevalence.run: population must be positive";
  let sim = Sim.create () in
  let engine = Fl.Fluid_engine.create ~dt_s ~warmup_s ~seed () in
  let rng = U.Rng.create (seed lxor 0x9E37) in
  let users = build_population engine rng ~n in
  let driver = Fl.Fluid_driver.attach sim engine ~couplings:[] in
  add_population_probes sim engine;
  Sim.run ~until:duration_s sim;
  Fl.Fluid_driver.catch_up driver ~until_s:duration_s;
  let hybrid = match backend with Fluid -> None | Hybrid -> Some (run_household ~seed) in
  summarize backend ~n ~seed engine users hybrid

let render r =
  Report.with_buf @@ fun b ->
  Report.line b
    (Printf.sprintf
       "P1: contention prevalence across %d users (%s backend, %gs horizon, seed %d)" r.n
       (match r.backend with Fluid -> "fluid" | Hybrid -> "hybrid")
       duration_s r.seed);
  let table =
    U.Table.create
      ~columns:
        [
          ("plan", U.Table.Left);
          ("users", U.Table.Right);
          ("flows", U.Table.Right);
          ("contended", U.Table.Right);
          ("prevalence", U.Table.Right);
          ("mean util", U.Table.Right);
        ]
  in
  List.iter
    (fun t ->
      U.Table.add_row table
        [
          t.tier;
          string_of_int t.users;
          string_of_int t.flows;
          string_of_int t.contended;
          U.Table.cell_f ~decimals:3
            (if t.users = 0 then 0.0 else float_of_int t.contended /. float_of_int t.users);
          U.Table.cell_f ~decimals:3 t.util;
        ])
    r.tier_rows;
  Report.table b table;
  Report.line b
    (Printf.sprintf
       "overall: %.1f%% of users in contention (>= %.1fs contended); mean contended time \
        fraction %.4f; population drop fraction %.5f"
       (100.0 *. r.prevalence) contended_threshold_s r.mean_contended_frac r.drop_frac);
  match r.hybrid with
  | None -> ()
  | Some h ->
      Report.line b "";
      Report.line b
        (Printf.sprintf
           "household (hybrid, %.0f Mbit/s shared link): cubic %.1f Mbit/s + reno %.1f \
            Mbit/s foreground vs %.1f Mbit/s fluid background; link contended %.1fs"
           h.coupled_link_mbps h.fg_cubic_mbps h.fg_reno_mbps h.bg_served_mbps
           h.coupled_contended_s)
