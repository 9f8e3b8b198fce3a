(* The four ccbench workloads.

   Each workload generates its inputs from the seed on the benchmark's
   side (flow mix, edge delays, arrival schedule, population) and hands
   them to the simulator only through public constructors, so the traced
   run can wrap every layer boundary without touching the library. Each
   returns a canonical rendering of its results (floats as %h, so the
   digest is exact) and the failures of its output checks.

   Sizes are given at scale 1.0; the smoke test runs them at 1/30. *)

module U = Ccsim_util
module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Tcp = Ccsim_tcp
module Cc = Ccsim_cca
module App = Ccsim_app
module Fl = Ccsim_fluid
module Obs = Ccsim_obs
module Faults = Ccsim_faults
module Mon = Ccsim_measure.Telemetry

type phase = Build | Run | Done

type ctx = {
  seed : int;
  scale : float;
  tr : Trace.t option;
  profile : Obs.Profile.t option;  (* attached in the traced run only *)
  mark : phase -> unit;
      (* Build: the first program constructor is next; Run: the first
         Sim event or fluid step is next; Done: the run returned *)
}

type outcome = {
  digest : string;  (* MD5 of the canonical rendering, hex *)
  sim_s : float;  (* simulated seconds covered by the run phase *)
  failures : string list;
  extras : (string * float) list;
      (* per-layer figures only the workload can read, by metric name *)
}

let names = [ "dumbbell-paper"; "mice-fq"; "fluid-population"; "hybrid-observed" ]

(* --- shared pieces ------------------------------------------------------ *)

let line b fmt = Printf.bprintf b (fmt ^^ "\n")

let shuffle rng a =
  U.Rng.shuffle rng a;
  a

let tcp_cca = function
  | `Reno -> (Cc.Reno.create (), "reno")
  | `Cubic -> (Cc.Cubic.create (), "cubic")
  | `Bbr -> (Cc.Bbr.create (), "bbr")

type conn = { flow : int; sender : Tcp.Sender.t; receiver : Tcp.Receiver.t }

(* Connection set-up through the public pieces Connection.establish is
   made of, so each handler can be wrapped at its boundary.

   Receivers advertise [rwnd], one bottleneck BDP or less. With the 4 MiB
   default, a BBR flow that ignores loss can hold thousands of segments
   in flight, and the sender scoreboard and receiver reassembly work
   per ack grows with that window: run cost then swung by +-20% from
   seed to seed on the same workload. A BDP-sized window bounds it
   (seed-to-seed spread of allocated words 2-4%) while every bottleneck
   stays oversubscribed. *)
let connect ctx (topo : Net.Topology.t) ~rwnd ~flow ~cca ?on_complete () =
  Trace.conn_setup ctx.tr (fun () ->
      let cca = Trace.cca_wrap ctx.tr cca in
      let sender =
        Tcp.Sender.create topo.sim ~flow ~cca
          ~path:(Trace.entry ctx.tr (topo.fwd_entry ~flow))
          ?on_complete ()
      in
      let receiver =
        Tcp.Receiver.create topo.sim ~flow
          ~ack_path:(Trace.entry ctx.tr (topo.rev_entry ~flow))
          ~buffer_bytes:rwnd ()
      in
      Net.Dispatch.register topo.fwd_dispatch ~flow
        (Trace.data_handler ctx.tr (Tcp.Receiver.handle_data receiver));
      Net.Dispatch.register topo.rev_dispatch ~flow
        (Trace.ack_handler ctx.tr (Tcp.Sender.handle_ack sender));
      { flow; sender; receiver })

let run_sim ctx sim ~until =
  ctx.mark Run;
  Trace.call ctx.tr Trace.engine (fun () -> Sim.run ~until sim);
  ctx.mark Done

(* Qdisc conservation: every accepted packet was dequeued, dropped
   inside the discipline (longest-queue drop, reset flush) or is still
   queued. Rejected arrivals are counted on the benchmark side, so
   internal drops are the qdisc's drops minus those. *)
let check_conservation (q : Net.Qdisc.t) ~rejected =
  let st = q.Net.Qdisc.stats in
  let internal = st.Net.Qdisc.dropped - rejected in
  let backlog = q.Net.Qdisc.backlog_packets () in
  if st.Net.Qdisc.enqueued <> st.Net.Qdisc.dequeued + internal + backlog then
    [
      Printf.sprintf "qdisc conservation: accepted %d <> dequeued %d + internal drops %d + backlog %d"
        st.Net.Qdisc.enqueued st.Net.Qdisc.dequeued internal backlog;
    ]
  else []

let check_bytes conns =
  let sent = List.fold_left (fun a c -> a + Tcp.Sender.bytes_sent c.sender) 0 conns in
  let received = List.fold_left (fun a c -> a + Tcp.Receiver.bytes_received c.receiver) 0 conns in
  if received > sent then [ Printf.sprintf "received %d bytes > sent %d bytes" received sent ]
  else []

let render_qdisc b (q : Net.Qdisc.t) =
  let st = q.Net.Qdisc.stats in
  line b "qdisc %s enq %d deq %d drop %d backlog %d" q.Net.Qdisc.name st.Net.Qdisc.enqueued
    st.Net.Qdisc.dequeued st.Net.Qdisc.dropped
    (q.Net.Qdisc.backlog_packets ())

let render_conn b c tag =
  let s = c.sender in
  line b "flow %d %s acked %d sent %d retrans %d received %d acks %d srtt %h" c.flow tag
    (Tcp.Sender.bytes_acked s) (Tcp.Sender.bytes_sent s) (Tcp.Sender.bytes_retrans s)
    (Tcp.Receiver.bytes_received c.receiver)
    (Tcp.Receiver.acks_sent c.receiver) (Tcp.Sender.srtt s)

let retrans_frac conns =
  let sent = List.fold_left (fun a c -> a + Tcp.Sender.bytes_sent c.sender) 0 conns in
  let re = List.fold_left (fun a c -> a + Tcp.Sender.bytes_retrans c.sender) 0 conns in
  if sent = 0 then 0.0 else float_of_int re /. float_of_int sent

let finish b ~sim_s ~failures ~extras =
  { digest = Digest.to_hex (Digest.string (Buffer.contents b)); sim_s; failures; extras }

(* --- dumbbell-paper ------------------------------------------------------

   The paper's §3.2 emulated link: 48 Mbit/s, 50 ms one way, a one-BDP
   FIFO, a Nimbus probe (pulses on, mode switching off, known capacity)
   against three Reno, three CUBIC and three BBR bulk flows, with the
   per-flow and queue monitors Scenario.run attaches. The steady
   per-packet fast path under loss.

   Flow i sits on an edge delay of 1 + 4i ms, CCAs interleaved so each
   kind spans short and long RTTs. The seed jitters edge delays and
   start times; the CCA on each edge is fixed, so every seed runs the
   same contest (BBR's per-ack cost grows with its window, so which CCA
   gets which RTT would otherwise set the run's cost). *)

let dumbbell ctx =
  let duration = 30.0 *. ctx.scale in
  let rng = U.Rng.create ctx.seed in
  let rate = U.Units.mbps 48.0 in
  let bdp = U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.1 in
  let mix = [| `Reno; `Cubic; `Bbr; `Reno; `Cubic; `Bbr; `Reno; `Cubic; `Bbr |] in
  let edge = Array.init 10 (fun i -> 0.001 +. (0.004 *. float_of_int i) +. U.Rng.float rng 0.0005) in
  let starts = Array.init 10 (fun _ -> U.Rng.uniform rng ~lo:0.0 ~hi:0.5) in
  Obs.Scope.with_scope (Obs.Scope.v ?profile:ctx.profile ()) @@ fun () ->
  ctx.mark Build;
  let sim = Sim.create () in
  Option.iter (fun t -> Trace.watch_sim t sim) ctx.tr;
  let rejected = ref 0 in
  let q = Trace.qdisc_wrap ctx.tr ~rejected (Net.Fifo.create ~limit_bytes:bdp ()) in
  let topo =
    Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.05 ~qdisc:q ~edge_delay:(fun i -> edge.(i)) ()
  in
  let qmon = Mon.Queue_monitor.create sim ~qdisc:q () in
  let probe, nimbus = Cc.Nimbus.create sim ~mode_switching:false ~known_capacity_bps:rate () in
  let flows =
    List.init 10 (fun i ->
        let cca, tag = if i = 0 then (probe, "nimbus") else tcp_cca mix.(i - 1) in
        let c = connect ctx topo ~rwnd:bdp ~flow:i ~cca () in
        let mon = Mon.Flow_monitor.create sim ~sender:c.sender () in
        let app = App.Bulk.start sim ~sender:c.sender ~at:starts.(i) () in
        (c, tag, mon, app))
  in
  run_sim ctx sim ~until:duration;
  let b = Buffer.create 4096 in
  line b "dumbbell-paper seed %d duration %h now %h" ctx.seed duration (Sim.now sim);
  let elasticity = U.Timeseries.values nimbus.Cc.Nimbus.elasticity in
  line b "nimbus elasticity %d %h cross %d" (Array.length elasticity)
    (Array.fold_left ( +. ) 0.0 elasticity)
    (U.Timeseries.length nimbus.Cc.Nimbus.cross_rate);
  List.iter
    (fun (c, tag, mon, _) ->
      render_conn b c tag;
      let tput = U.Timeseries.values (Mon.Flow_monitor.throughput mon) in
      line b "  monitor %d %h" (Array.length tput) (Array.fold_left ( +. ) 0.0 tput))
    flows;
  render_qdisc b q;
  line b "queue mean %h max %h delivered %d" (Mon.Queue_monitor.mean_backlog_bytes qmon)
    (Mon.Queue_monitor.max_backlog_bytes qmon)
    (Net.Link.bytes_delivered topo.bottleneck);
  let conns = List.map (fun (c, _, _, _) -> c) flows in
  let started = List.length (List.filter (fun (_, _, _, a) -> App.Bulk.started a) flows) in
  finish b ~sim_s:duration
    ~failures:(check_conservation q ~rejected:!rejected @ check_bytes conns)
    ~extras:
      [
        ("net.qdisc.drop_frac", Net.Qdisc.loss_rate q);
        ("tcp.retrans_frac", retrans_frac conns);
        ("app.flows_started", float_of_int started);
        ("app.flows_completed_frac", 0.0);
      ]

(* --- mice-fq --------------------------------------------------------------

   Open-loop short-flow churn through DRR fair queueing: 200 Mbit/s,
   10 ms, Poisson arrivals at 400 flows/s of bounded-Pareto sizes (shape
   1.2, 30 kB mean as App.Poisson_flows parameterizes it, 10 MB cap),
   each on its own connection with a Reno/CUBIC/BBR mix of 40/40/20,
   over a background of two bulk flows, one ABR video and one on/off
   source. Connection set-up, timers, a deep heap and per-flow queues.

   The arrival count is fixed at rate x duration (a Poisson process
   conditioned on its count: sorted uniform times). Sizes come from one
   jittered draw per probability stratum and CCAs are dealt by size rank,
   so every seed offers the same size distribution per CCA; the seed
   decides which arrival gets which (size, CCA) pair. BBR is dealt only
   below the 99th size percentile: whether a multi-megabyte BBR flow
   arrives early or late otherwise moved run cost by +-8% between seeds.
   That keeps run cost a property of the workload, not of the seed. *)

let mice ctx =
  let duration = 12.0 *. ctx.scale in
  let rate = U.Units.mbps 200.0 in
  let bdp = U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.02 in
  let rng = U.Rng.create ctx.seed in
  let n = int_of_float (Float.round (400.0 *. duration)) in
  let arrivals = Array.init n (fun _ -> U.Rng.float rng duration) in
  Array.sort Float.compare arrivals;
  let shape = 1.2 and cap = 10_000_000.0 in
  let scale = 30_000.0 *. (shape -. 1.0) /. shape in
  let tail = Float.pow (scale /. cap) shape in
  let size k =
    let u = (float_of_int k +. 0.25 +. U.Rng.float rng 0.5) /. float_of_int n in
    Int.max 100 (int_of_float (scale /. Float.pow (1.0 -. (u *. (1.0 -. tail))) (1.0 /. shape)))
  in
  let kind k =
    match k mod 5 with
    | 0 | 2 -> `Reno
    | 1 | 3 -> `Cubic
    | _ -> if k >= n - (n / 100) then `Cubic else `Bbr
  in
  let strata = shuffle rng (Array.init n Fun.id) in
  let sizes = Array.map size strata and kinds = Array.map kind strata in
  let edge = Array.init (n + 4) (fun _ -> U.Rng.uniform rng ~lo:0.001 ~hi:0.01) in
  let onoff_rng = U.Rng.split rng in
  Obs.Scope.with_scope (Obs.Scope.v ?profile:ctx.profile ()) @@ fun () ->
  ctx.mark Build;
  let sim = Sim.create () in
  Option.iter (fun t -> Trace.watch_sim t sim) ctx.tr;
  let rejected = ref 0 in
  let q = Trace.qdisc_wrap ctx.tr ~rejected (Net.Drr.create ~limit_bytes:bdp ()) in
  let edge_delay flow = if flow < 1000 then edge.(n + flow) else edge.(flow - 1000) in
  let topo = Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.01 ~qdisc:q ~edge_delay () in
  let bg =
    List.map
      (fun (flow, kind) ->
        let cca, tag = tcp_cca kind in
        (connect ctx topo ~rwnd:bdp ~flow ~cca (), tag))
      [ (0, `Cubic); (1, `Reno); (2, `Cubic); (3, `Reno) ]
  in
  let bg_conn i = fst (List.nth bg i) in
  let bulk = List.map (fun i -> App.Bulk.start sim ~sender:(bg_conn i).sender ()) [ 0; 1 ] in
  let video = App.Video.start sim ~sender:(bg_conn 2).sender () in
  let onoff =
    App.Onoff.start sim ~sender:(bg_conn 3).sender ~rng:onoff_rng ~rate_bps:(U.Units.mbps 20.0) ()
  in
  let finished = Array.make n nan in
  let mice_conns = Array.make n None in
  let spawn k () =
    let flow = 1000 + k in
    let cca, _ = tcp_cca kinds.(k) in
    let rec c =
      lazy
        (connect ctx topo ~rwnd:bdp ~flow ~cca
           ~on_complete:(fun _ ->
             finished.(k) <- Sim.now sim;
             (* Tear down after the completing ack has been handled. *)
             ignore
               (Sim.schedule sim ~delay:0.0 (fun () ->
                    let c = Lazy.force c in
                    Tcp.Sender.stop c.sender;
                    Net.Dispatch.unregister topo.fwd_dispatch ~flow;
                    Net.Dispatch.unregister topo.rev_dispatch ~flow)))
           ())
    in
    let c = Lazy.force c in
    mice_conns.(k) <- Some c;
    Trace.call ctx.tr Trace.tcp (fun () ->
        Tcp.Sender.write c.sender sizes.(k);
        Tcp.Sender.close c.sender)
  in
  Array.iteri (fun k time -> ignore (Sim.schedule_at sim ~time (spawn k))) arrivals;
  run_sim ctx sim ~until:duration;
  let b = Buffer.create (64 * n) in
  line b "mice-fq seed %d duration %h now %h" ctx.seed duration (Sim.now sim);
  List.iter (fun (c, tag) -> render_conn b c tag) bg;
  line b "video chunks %d onoff offered %d" (App.Video.stats video).App.Video.chunks_downloaded
    (App.Onoff.bytes_offered onoff);
  let completed = ref 0 and started = ref 0 in
  Array.iteri
    (fun k c ->
      match c with
      | None -> ()
      | Some c ->
          incr started;
          if not (Float.is_nan finished.(k)) then incr completed;
          line b "mouse %d size %d done %h acked %d retrans %d" k sizes.(k) finished.(k)
            (Tcp.Sender.bytes_acked c.sender)
            (Tcp.Sender.segs_retrans c.sender))
    mice_conns;
  render_qdisc b q;
  let conns = List.map fst bg @ List.filter_map Fun.id (Array.to_list mice_conns) in
  let bulk_started = List.length (List.filter App.Bulk.started bulk) in
  let all_started = !started + bulk_started + 2 in
  finish b ~sim_s:duration
    ~failures:(check_conservation q ~rejected:!rejected @ check_bytes conns)
    ~extras:
      [
        ("net.qdisc.drop_frac", Net.Qdisc.loss_rate q);
        ("tcp.retrans_frac", retrans_frac conns);
        ("app.flows_started", float_of_int all_started);
        ("app.flows_completed_frac", float_of_int !completed /. float_of_int (Int.max 1 all_started));
      ]

(* --- fluid-population -----------------------------------------------------

   The p1 prevalence recipe on the fluid engine alone: service-plan
   tiers, a 55/30/15 CUBIC/BBR/Reno provider mix, Pareto demand caps and
   exponential on/off activity, about two flows per user at 50,000
   users. A working set far beyond the caches and zero Sim events: every
   packet-path change should leave it unchanged. *)

let tiers = [| (25.0, 0.25); (100.0, 0.45); (300.0, 0.20); (1000.0, 0.10) |]
let fluid_mix = [| (Fl.Fluid_model.Cubic, 0.55); (Fl.Fluid_model.Bbr, 0.30); (Fl.Fluid_model.Reno, 0.15) |]

let pick rng choices =
  let u = U.Rng.float rng 1.0 in
  let rec go i acc =
    let v, w = choices.(i) in
    if i = Array.length choices - 1 || u < acc +. w then v else go (i + 1) (acc +. w)
  in
  go 0 0.0

type fluid_flow = {
  model : Fl.Fluid_model.t;
  rtt_base_s : float;
  cap_bps : float;
  on_off_s : (float * float) option;
  start_active : bool;
}

let add_fluid_flow engine ~link f =
  ignore
    (Fl.Fluid_engine.add_flow engine ~link ~model:f.model ~rtt_base_s:f.rtt_base_s
       ~cap_bps:f.cap_bps ?on_off_s:f.on_off_s ~start_active:f.start_active ())

let fluid_residual_check engine =
  let totals = Fl.Fluid_engine.totals engine in
  let residual = Float.abs (Fl.Fluid_engine.residual_bytes engine) in
  let offered = totals.Fl.Fluid_engine.offered_bytes in
  ( (if residual > 1e-9 *. offered then
       [ Printf.sprintf "fluid residual %g bytes > 1e-9 x offered %g" residual offered ]
     else []),
    if offered > 0.0 then residual /. offered else 0.0 )

let render_totals b engine =
  let t = Fl.Fluid_engine.totals engine in
  line b "fluid offered %h served %h dropped %h queued %h" t.Fl.Fluid_engine.offered_bytes
    t.Fl.Fluid_engine.served_bytes t.Fl.Fluid_engine.dropped_bytes t.Fl.Fluid_engine.queued_bytes

let fluid_population ctx =
  let users = Int.max 1 (int_of_float (50_000.0 *. ctx.scale)) in
  let horizon = 6.0 and dt_s = 0.02 in
  let rng = U.Rng.create ctx.seed in
  let population =
    Array.init users (fun _ ->
        let ti = pick rng (Array.mapi (fun i (_, w) -> (i, w)) tiers) in
        let plan = U.Units.mbps (fst tiers.(ti)) in
        let buffer_bytes = Int.max 9000 (int_of_float (0.05 *. plan /. 8.0)) in
        let flows =
          Array.init (1 + U.Rng.int rng 3) (fun _ ->
              let model = pick rng fluid_mix in
              let rtt_base_s = U.Rng.uniform rng ~lo:0.015 ~hi:0.08 in
              (* Heavy-tailed demand: Pareto(1.2) from 2 Mbit/s, capped
                 at 1.5 plans. *)
              let cap_bps =
                U.Rng.bounded_pareto rng ~shape:1.2 ~scale:(U.Units.mbps 2.0) ~cap:(1.5 *. plan)
              in
              let on_s = U.Rng.uniform rng ~lo:2.0 ~hi:8.0 in
              let off_s = U.Rng.uniform rng ~lo:4.0 ~hi:24.0 in
              let start_active = U.Rng.bernoulli rng ~p:(on_s /. (on_s +. off_s)) in
              { model; rtt_base_s; cap_bps; on_off_s = Some (on_s, off_s); start_active })
        in
        (ti, plan, buffer_bytes, flows))
  in
  ctx.mark Build;
  let engine, links =
    Trace.fluid_build ctx.tr (fun () ->
        let engine = Fl.Fluid_engine.create ~dt_s ~warmup_s:1.0 ~seed:ctx.seed () in
        let links =
          Array.map
            (fun (_, plan, buffer_bytes, flows) ->
              let link = Fl.Fluid_engine.add_link engine ~capacity_bps:plan ~buffer_bytes in
              Array.iter (add_fluid_flow engine ~link) flows;
              link)
            population
        in
        (engine, links))
  in
  ctx.mark Run;
  let steps = int_of_float (Float.round (horizon /. dt_s)) in
  for _ = 1 to steps do
    Trace.call ctx.tr Trace.fluid (fun () -> Fl.Fluid_engine.step engine)
  done;
  ctx.mark Done;
  let b = Buffer.create 4096 in
  line b "fluid-population seed %d users %d flows %d now %h" ctx.seed users
    (Fl.Fluid_engine.flows engine) (Fl.Fluid_engine.now_s engine);
  render_totals b engine;
  let ntiers = Array.length tiers in
  let t_users = Array.make ntiers 0 and t_contended = Array.make ntiers 0 in
  let t_served = Array.make ntiers 0.0 and t_contended_s = Array.make ntiers 0.0 in
  Array.iteri
    (fun u (ti, _, _, _) ->
      let c = Fl.Fluid_engine.link_contended_s engine links.(u) in
      t_users.(ti) <- t_users.(ti) + 1;
      if c >= 0.5 then t_contended.(ti) <- t_contended.(ti) + 1;
      t_contended_s.(ti) <- t_contended_s.(ti) +. c;
      t_served.(ti) <- t_served.(ti) +. Fl.Fluid_engine.link_served_bytes engine links.(u))
    population;
  for ti = 0 to ntiers - 1 do
    line b "tier %d users %d contended %d contended_s %h served %h" ti t_users.(ti)
      t_contended.(ti) t_contended_s.(ti) t_served.(ti)
  done;
  let failures, residual_frac = fluid_residual_check engine in
  let flows = float_of_int (Fl.Fluid_engine.flows engine) in
  finish b ~sim_s:horizon ~failures
    ~extras:
      [
        ("fluid.flows", flows);
        ("fluid.flow_steps", flows *. float_of_int steps);
        ("fluid.residual_frac", residual_frac);
      ]

(* --- hybrid-observed ------------------------------------------------------

   The packet layers of dumbbell-paper used differently: four bulk flows
   (two CUBIC, one Reno, one BBR) on a 100 Mbit/s, 20 ms, 4-BDP FIFO
   coupled by Fluid_driver to 64 fluid background flows, with every
   instrument on (metrics, flight recorder at info, timeline, aborting
   watchdog, 1-in-64 packet spans) and a fault plan on the bottleneck.
   Catches a change that speeds the bare path by taxing the instrumented
   one, or the reverse.

   Receivers advertise half a BDP, so the four packet flows are window
   limited rather than loss limited and losses come from the fault plan.
   With one-BDP windows BBR's share of the link, and with it the run's
   cost (its per-ack bandwidth filter grows with its ack rate), swung by
   7% from seed to seed; with half a BDP over 20 simulated seconds the
   seed-to-seed spread of allocated words is 2%. *)

let fault_plan duration =
  let at f = f *. duration in
  Faults.Plan.
    [
      Loss { at_s = at 0.10; dur_s = at 0.05; p = 0.01 };
      Burst_loss
        { at_s = at 0.25; dur_s = at 0.10; p_enter = 0.01; p_exit = 0.25; loss_good = 0.0; loss_bad = 0.3 };
      Reorder { at_s = at 0.40; dur_s = at 0.10; p = 0.05; extra_s = 0.005 };
      Outage { at_s = at 0.55; dur_s = at 0.02 };
      Capacity { at_s = at 0.65; factor = 0.5; dur_s = Some (at 0.10) };
      Qdisc_reset { at_s = at 0.85 };
    ]

(* The background is always on, with demand caps drawn one per
   probability stratum of a Pareto(1.2) from 0.2 Mbit/s (capped at
   10 Mbit/s) and models dealt 55/30/15 by cap rank: about 40 Mbit/s of
   steady fluid demand whatever the seed, so the packet flows' share, and
   with it the run's cost, does not swing with the draw. *)
let hybrid_background rng =
  let n = 64 and shape = 1.2 and scale = U.Units.mbps 0.2 and cap = U.Units.mbps 10.0 in
  let tail = Float.pow (scale /. cap) shape in
  let model k =
    match k mod 20 with
    | 0 | 4 | 8 | 12 | 16 | 19 -> Fl.Fluid_model.Bbr
    | 2 | 10 | 14 -> Fl.Fluid_model.Reno
    | _ -> Fl.Fluid_model.Cubic
  in
  Array.map
    (fun k ->
      let u = (float_of_int k +. 0.25 +. U.Rng.float rng 0.5) /. float_of_int n in
      {
        model = model k;
        rtt_base_s = U.Rng.uniform rng ~lo:0.02 ~hi:0.06;
        cap_bps = scale /. Float.pow (1.0 -. (u *. (1.0 -. tail))) (1.0 /. shape);
        on_off_s = None;
        start_active = true;
      })
    (shuffle rng (Array.init n Fun.id))

let hybrid ctx =
  let duration = 20.0 *. ctx.scale in
  let rate = U.Units.mbps 100.0 in
  let rng = U.Rng.create ctx.seed in
  let edge = Array.init 4 (fun i -> 0.001 +. (0.003 *. float_of_int i) +. U.Rng.float rng 0.0005) in
  let background = hybrid_background rng in
  let plan = fault_plan duration in
  let metrics = Obs.Metrics.create () in
  let recorder = Obs.Recorder.create ~level:Obs.Recorder.Info () in
  let timeline = Obs.Timeline.create () in
  let watchdog = Obs.Watchdog.create ~policy:Obs.Watchdog.Abort () in
  Obs.Watchdog.watch_timeline watchdog timeline;
  let span = Obs.Span.create ~recorder ~sample:64 () in
  let scope =
    Obs.Scope.v ~metrics ~recorder ?profile:ctx.profile ~timeline ~watchdog ~span ()
  in
  Obs.Scope.with_scope scope @@ fun () ->
  ctx.mark Build;
  let sim = Sim.create () in
  Option.iter (fun t -> Trace.watch_sim t sim) ctx.tr;
  let bdp = U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.04 in
  let limit_bytes = 4 * bdp in
  let rejected = ref 0 in
  let q = Trace.qdisc_wrap ctx.tr ~rejected (Net.Fifo.create ~limit_bytes ()) in
  let topo =
    Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.02 ~qdisc:q
      ~edge_delay:(fun i -> edge.(i mod 4))
      ()
  in
  let engine, fl =
    Trace.fluid_build ctx.tr (fun () ->
        let engine = Fl.Fluid_engine.create ~dt_s:0.02 ~seed:(ctx.seed + 1) () in
        let fl = Fl.Fluid_engine.add_link engine ~capacity_bps:rate ~buffer_bytes:limit_bytes in
        Array.iter (add_fluid_flow engine ~link:fl) background;
        (engine, fl))
  in
  let driver = Fl.Fluid_driver.attach sim engine ~couplings:[ (fl, topo.bottleneck) ] in
  let injector =
    Faults.Injector.attach sim ~link:topo.bottleneck ~plan ~seed:(ctx.seed + 2) ()
  in
  let conns =
    List.mapi
      (fun flow kind ->
        let cca, tag = tcp_cca kind in
        let c = connect ctx topo ~rwnd:(bdp / 2) ~flow ~cca () in
        ignore (App.Bulk.start sim ~sender:c.sender ());
        (c, tag))
      [ `Cubic; `Cubic; `Reno; `Bbr ]
  in
  ctx.mark Run;
  Trace.call ctx.tr Trace.engine (fun () -> Sim.run ~until:duration sim);
  Trace.call ctx.tr Trace.fluid (fun () -> Fl.Fluid_driver.catch_up driver ~until_s:duration);
  ctx.mark Done;
  let b = Buffer.create 4096 in
  line b "hybrid-observed seed %d duration %h now %h" ctx.seed duration (Sim.now sim);
  List.iter (fun (c, tag) -> render_conn b c tag) conns;
  render_qdisc b q;
  render_totals b engine;
  let s = Faults.Injector.summary injector in
  line b "faults armed %d fired %d cleared %d lost %d reordered %d flushed %d"
    s.Faults.Injector.armed s.Faults.Injector.fired s.Faults.Injector.cleared
    s.Faults.Injector.wire_lost s.Faults.Injector.wire_reordered s.Faults.Injector.qdisc_flushed;
  let points =
    List.fold_left (fun a s -> a + Obs.Timeline.length s) 0 (Obs.Timeline.all_series timeline)
  in
  line b "obs records %d points %d spans %d checks %d" (Obs.Recorder.count recorder) points
    (Obs.Span.completed_count span) (Obs.Watchdog.checks_run watchdog);
  let fluid_failures, residual_frac = fluid_residual_check engine in
  let in_horizon =
    List.length (List.filter (fun (start, _) -> start <= duration) (Faults.Plan.windows plan))
  in
  let fault_failures =
    if s.Faults.Injector.fired <> in_horizon then
      [ Printf.sprintf "faults fired %d <> %d plan events in the horizon" s.Faults.Injector.fired in_horizon ]
    else []
  in
  let watchdog_failures =
    match Obs.Watchdog.violation watchdog with
    | Some v -> [ "watchdog: " ^ Obs.Watchdog.one_line v ]
    | None -> if Obs.Watchdog.checks_run watchdog = 0 then [ "watchdog never ran" ] else []
  in
  let conns = List.map fst conns in
  let flows = float_of_int (Fl.Fluid_engine.flows engine) in
  finish b ~sim_s:duration
    ~failures:
      (check_conservation q ~rejected:!rejected
      @ check_bytes conns @ fluid_failures @ fault_failures @ watchdog_failures)
    ~extras:
      [
        ("net.qdisc.drop_frac", Net.Qdisc.loss_rate q);
        ("tcp.retrans_frac", retrans_frac conns);
        ("app.flows_started", float_of_int (List.length conns));
        ("app.flows_completed_frac", 0.0);
        ("fluid.flows", flows);
        ("fluid.flow_steps", flows *. Float.round (Fl.Fluid_engine.now_s engine /. 0.02));
        ("fluid.residual_frac", residual_frac);
        ("obs.series_points", float_of_int points);
        ("obs.records", float_of_int (Obs.Recorder.count recorder));
        ("obs.spans_sealed", float_of_int (Obs.Span.completed_count span));
        ("faults.fired", float_of_int s.Faults.Injector.fired);
        ("faults.wire_lost", float_of_int s.Faults.Injector.wire_lost);
      ]

let run name ctx =
  match name with
  | "dumbbell-paper" -> dumbbell ctx
  | "mice-fq" -> mice ctx
  | "fluid-population" -> fluid_population ctx
  | "hybrid-observed" -> hybrid ctx
  | _ -> invalid_arg ("unknown workload " ^ name)
