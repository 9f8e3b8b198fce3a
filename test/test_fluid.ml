(* Ccsim_fluid: the fluid population engine and the hybrid coupling.

   The load-bearing tests are the ISSUE-6 acceptance checks: a 4-flow
   dumbbell run agrees between the packet and fluid backends within the
   documented tolerance (EXPERIMENTS.md), and the byte-conservation
   watchdog invariant trips when accounting is corrupted — in both the
   standalone and the hybrid (DES-coupled) configuration. *)

module U = Ccsim_util
module Fl = Ccsim_fluid
module Obs = Ccsim_obs
module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Tcp = Ccsim_tcp
module App = Ccsim_app
module Core = Ccsim_core

let feq = U.Feq.feq

(* ---- model table ---- *)

let test_model_names () =
  List.iter
    (fun m ->
      let name = Fl.Fluid_model.name m in
      Alcotest.(check bool)
        (Printf.sprintf "of_name %s roundtrips" name)
        true
        (Fl.Fluid_model.of_name name = Some m);
      Alcotest.(check bool)
        (Printf.sprintf "of_index %s roundtrips" name)
        true
        (Fl.Fluid_model.of_index (Fl.Fluid_model.index m) = m))
    [ Fl.Fluid_model.Reno; Fl.Fluid_model.Cubic; Fl.Fluid_model.Bbr ];
  Alcotest.(check (option bool)) "unknown name" None
    (Option.map (fun _ -> true) (Fl.Fluid_model.of_name "dctcp"))

(* ---- engine basics ---- *)

(* Run a population as P1 does: stepped on a Sim of its own by
   Fluid_driver, with no couplings, to [until_s]. The sim takes the
   ambient scope's instruments, so its watchdog sweeps the engine's
   conservation check. *)
let run_engine engine ~until_s =
  let sim = Sim.create () in
  let driver = Fl.Fluid_driver.attach sim engine ~couplings:[] in
  Sim.run ~until:until_s sim;
  Fl.Fluid_driver.catch_up driver ~until_s

let simple_engine ?(models = [ Fl.Fluid_model.Reno ]) ?dt_s ~capacity_mbps ~seed () =
  let engine = Fl.Fluid_engine.create ?dt_s ~warmup_s:2.0 ~seed () in
  let capacity_bps = U.Units.mbps capacity_mbps in
  let buffer_bytes = 2 * U.Units.bdp_bytes ~rate_bps:capacity_bps ~rtt_s:0.04 in
  let link = Fl.Fluid_engine.add_link engine ~capacity_bps ~buffer_bytes in
  let flows =
    List.map
      (fun model -> Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s:0.04 ())
      models
  in
  (engine, link, flows)

let test_single_flow_fills_link () =
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:1 () in
  run_engine engine ~until_s:20.0;
  let cap = Fl.Fluid_engine.link_capacity_bps engine link in
  let served = Fl.Fluid_engine.link_served_bytes engine link *. 8.0 /. 20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "one Reno flow keeps the link busy (%.2f of capacity)" (served /. cap))
    true
    (served >= 0.8 *. cap);
  Alcotest.(check bool) "served never exceeds capacity" true (served <= cap *. 1.0001)

let test_conservation_exact () =
  let engine = Fl.Fluid_engine.create ~dt_s:0.02 ~seed:5 () in
  let rng = U.Rng.create 6 in
  let links =
    Array.init 50 (fun _ ->
        Fl.Fluid_engine.add_link engine ~capacity_bps:(U.Units.mbps 50.0)
          ~buffer_bytes:100_000)
  in
  for i = 0 to 199 do
    let link = links.(i mod Array.length links) in
    let model = Fl.Fluid_model.of_index (i mod 3) in
    let rtt_base_s = U.Rng.uniform rng ~lo:0.015 ~hi:0.08 in
    ignore
      (Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s
         ~cap_bps:(U.Units.mbps 30.0)
         ~on_off_s:(3.0, 5.0) ())
  done;
  run_engine engine ~until_s:10.0;
  let totals = Fl.Fluid_engine.totals engine in
  Alcotest.(check bool) "population moved bytes" true (totals.Fl.Fluid_engine.offered_bytes > 0.0);
  let tol = Float.max 1024.0 (1e-6 *. totals.Fl.Fluid_engine.offered_bytes) in
  Alcotest.(check bool)
    (Printf.sprintf "engine residual %.3g within %.3g"
       (Fl.Fluid_engine.residual_bytes engine) tol)
    true
    (Float.abs (Fl.Fluid_engine.residual_bytes engine) <= tol);
  Array.iter
    (fun l ->
      Alcotest.(check bool) "per-link residual tiny" true
        (Float.abs (Fl.Fluid_engine.link_residual_bytes engine l) <= tol))
    links

let test_determinism_same_seed () =
  let run () =
    let engine, link, flows =
      simple_engine
        ~models:[ Fl.Fluid_model.Cubic; Fl.Fluid_model.Bbr; Fl.Fluid_model.Reno ]
        ~capacity_mbps:40.0 ~seed:11 ()
    in
    run_engine engine ~until_s:8.0;
    ( Fl.Fluid_engine.link_served_bytes engine link,
      List.map (Fl.Fluid_engine.flow_goodput_bps engine) flows )
  in
  let served_a, goodputs_a = run () in
  let served_b, goodputs_b = run () in
  Alcotest.(check bool) "served bytes bit-identical" true (feq ~eps:0.0 served_a served_b);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "per-flow goodput bit-identical" true (feq ~eps:0.0 a b))
    goodputs_a goodputs_b

let test_sealed_after_step () =
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:2 () in
  Fl.Fluid_engine.step engine;
  Alcotest.(check bool) "add_flow after seal raises" true
    (try
       ignore
         (Fl.Fluid_engine.add_flow engine ~link ~model:Fl.Fluid_model.Reno
            ~rtt_base_s:0.04 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "add_link after seal raises" true
    (try
       ignore (Fl.Fluid_engine.add_link engine ~capacity_bps:1e6 ~buffer_bytes:10_000);
       false
     with Invalid_argument _ -> true)

(* Out-of-domain build inputs raise, naming the function and argument.
   A NaN passes an [x <= 0.0] check; let in, it makes a run step
   nothing or end with NaN byte totals. *)
let test_non_finite_rejected () =
  let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ())) in
  let create = "Fluid_engine.create: " in
  List.iter
    (fun dt_s ->
      raises (Printf.sprintf "dt_s %g" dt_s) (create ^ "dt_s must be finite and positive")
        (fun () -> Fl.Fluid_engine.create ~dt_s ~seed:1 ()))
    [ nan; infinity; 0.0; -0.01 ];
  List.iter
    (fun warmup_s ->
      raises (Printf.sprintf "warmup_s %g" warmup_s)
        (create ^ "warmup_s must be finite and non-negative") (fun () ->
          Fl.Fluid_engine.create ~warmup_s ~seed:1 ()))
    [ nan; infinity; -1.0 ];
  List.iter
    (fun payload_frac ->
      raises (Printf.sprintf "payload_frac %g" payload_frac)
        (create ^ "payload_frac must be in (0, 1]") (fun () ->
          Fl.Fluid_engine.create ~payload_frac ~seed:1 ()))
    [ nan; 0.0; 1.5; infinity ];
  let engine = Fl.Fluid_engine.create ~seed:1 () in
  List.iter
    (fun capacity_bps ->
      raises (Printf.sprintf "capacity_bps %g" capacity_bps)
        "Fluid_engine.add_link: capacity_bps must be finite and positive" (fun () ->
          Fl.Fluid_engine.add_link engine ~capacity_bps ~buffer_bytes:10_000))
    [ nan; infinity; 0.0 ];
  let link = Fl.Fluid_engine.add_link engine ~capacity_bps:1e7 ~buffer_bytes:10_000 in
  let add ?cap_bps ?on_off_s ?(rtt_base_s = 0.04) () =
    Fl.Fluid_engine.add_flow engine ~link ~model:Fl.Fluid_model.Reno ~rtt_base_s ?cap_bps
      ?on_off_s ()
  in
  List.iter
    (fun rtt_base_s ->
      raises (Printf.sprintf "rtt_base_s %g" rtt_base_s)
        "Fluid_engine.add_flow: rtt_base_s must be finite and positive" (fun () ->
          add ~rtt_base_s ()))
    [ nan; infinity; 0.0 ];
  List.iter
    (fun cap_bps ->
      raises (Printf.sprintf "cap_bps %g" cap_bps) "Fluid_engine.add_flow: cap_bps must be positive"
        (fun () -> add ~cap_bps ()))
    [ nan; -1e6; 0.0 ];
  List.iter
    (fun (on_s, off_s) ->
      raises (Printf.sprintf "on_off_s (%g, %g)" on_s off_s)
        "Fluid_engine.add_flow: on_off_s means must be finite and positive" (fun () ->
          add ~on_off_s:(on_s, off_s) ()))
    [ (nan, 1.0); (1.0, nan); (infinity, 1.0); (1.0, 0.0) ];
  Alcotest.(check int) "rejected flows were not added" 0 (Fl.Fluid_engine.flows engine);
  ignore (add ~cap_bps:infinity ());
  raises "NaN packet rate" "Fluid_engine.set_packet_signals: NaN rate_bps" (fun () ->
      Fl.Fluid_engine.set_packet_signals engine ~link [| nan |] ~backlog_bytes:0);
  Fl.Fluid_engine.set_packet_signals engine ~link [| -1e6 |] ~backlog_bytes:0;
  run_engine engine ~until_s:1.0;
  Alcotest.(check bool) "a negative packet rate clamps to 0: the bulk flow fills the link" true
    (Fl.Fluid_engine.link_served_bps engine link >= 0.9e7)

(* ---- fluid vs packet cross-validation (ISSUE-6 acceptance) ----

   Four identical Reno bulk flows on a 40 Mbit/s dumbbell, both
   backends. Tolerance (documented in EXPERIMENTS.md): each per-flow
   goodput within 15% of the fair share, and the aggregates within 10%
   of each other. *)

let xval_rate = U.Units.mbps 40.0
let xval_rtt = 2.0 *. (0.02 +. 0.001) (* bottleneck + default edge delay, both ways *)
let xval_buffer = 2 * U.Units.bdp_bytes ~rate_bps:xval_rate ~rtt_s:xval_rtt
let xval_duration = 20.0
let xval_warmup = 5.0

let test_cross_validation_4flow () =
  (* Packet backend. *)
  let scenario =
    Core.Scenario.make ~name:"xval4"
      ~qdisc:(Core.Scenario.Fifo { limit_bytes = Some xval_buffer })
      ~duration:xval_duration ~warmup:xval_warmup ~seed:7 ~rate_bps:xval_rate
      ~delay_s:0.02
      (List.init 4 (fun i ->
           Core.Scenario.flow ~cca:Core.Scenario.Reno (Printf.sprintf "f%d" i)))
  in
  let packet = Core.Scenario.run scenario in
  (* Fluid backend: same capacity, buffer, RTT, CCA, horizon. *)
  let engine = Fl.Fluid_engine.create ~warmup_s:xval_warmup ~seed:7 () in
  let link = Fl.Fluid_engine.add_link engine ~capacity_bps:xval_rate ~buffer_bytes:xval_buffer in
  let fluid_flows =
    List.init 4 (fun _ ->
        Fl.Fluid_engine.add_flow engine ~link ~model:Fl.Fluid_model.Reno
          ~rtt_base_s:xval_rtt ())
  in
  run_engine engine ~until_s:xval_duration;
  let payload_frac = float_of_int U.Units.mss /. float_of_int (U.Units.mss + U.Units.header_bytes) in
  let fair = xval_rate /. 4.0 *. payload_frac in
  let tol = 0.15 *. fair in
  let fluid_goodputs = List.map (Fl.Fluid_engine.flow_goodput_bps engine) fluid_flows in
  let packet_goodputs =
    List.init 4 (fun i ->
        (Core.Results.find packet (Printf.sprintf "f%d" i)).Core.Results.goodput_bps)
  in
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "fluid flow %d near fair share (%.2f vs %.2f Mbit/s)" i
           (U.Units.to_mbps g) (U.Units.to_mbps fair))
        true (feq ~eps:tol g fair))
    fluid_goodputs;
  List.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "packet flow %d near fair share (%.2f vs %.2f Mbit/s)" i
           (U.Units.to_mbps g) (U.Units.to_mbps fair))
        true (feq ~eps:tol g fair))
    packet_goodputs;
  List.iteri
    (fun i (g_fluid, g_packet) ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d: fluid %.2f vs packet %.2f Mbit/s" i
           (U.Units.to_mbps g_fluid) (U.Units.to_mbps g_packet))
        true
        (feq ~eps:tol g_fluid g_packet))
    (List.combine fluid_goodputs packet_goodputs);
  let sum = List.fold_left ( +. ) 0.0 in
  Alcotest.(check bool) "aggregates within 10%" true
    (feq ~eps:(0.10 *. 4.0 *. fair) (sum fluid_goodputs) (sum packet_goodputs))

(* ---- watchdog: byte-conservation trips under injected corruption ---- *)

let test_watchdog_trips_on_skew () =
  let w = Obs.Watchdog.create () in
  let scope = Obs.Scope.v ~watchdog:w () in
  Obs.Scope.with_scope scope @@ fun () ->
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:4 () in
  run_engine engine ~until_s:1.0;
  (* Clean run: the final sweeps of [Sim.run] and [catch_up] already passed. *)
  Alcotest.(check bool) "no violation on clean run" true (Obs.Watchdog.violation w = None);
  Fl.Fluid_engine.inject_accounting_skew engine ~link ~bytes:1e6;
  let tripped =
    try
      Obs.Watchdog.check_now w ~now:(Fl.Fluid_engine.now_s engine);
      None
    with Obs.Watchdog.Violation v -> Some v
  in
  match tripped with
  | None -> Alcotest.fail "corrupted accounting did not trip the watchdog"
  | Some v ->
      Alcotest.(check string) "component" "fluid" v.Obs.Watchdog.component;
      Alcotest.(check string) "invariant" "byte_conservation" v.Obs.Watchdog.invariant

(* A NaN residue is a violation: [abs residue > tol] is false for NaN,
   so both conservation checks test [not (abs residue <= tol)]. *)
let test_watchdog_trips_on_nan () =
  let w = Obs.Watchdog.create () in
  let scope = Obs.Scope.v ~watchdog:w () in
  Obs.Scope.with_scope scope @@ fun () ->
  let engine, link, _ = simple_engine ~capacity_mbps:10.0 ~seed:4 () in
  run_engine engine ~until_s:1.0;
  let per_link = Obs.Watchdog.create () in
  Fl.Fluid_engine.register_link_invariant engine ~component:"fluid/link" per_link link;
  Fl.Fluid_engine.inject_accounting_skew engine ~link ~bytes:nan;
  let trips w =
    try
      Obs.Watchdog.check_now w ~now:(Fl.Fluid_engine.now_s engine);
      None
    with Obs.Watchdog.Violation v -> Some v.Obs.Watchdog.invariant
  in
  Alcotest.(check (option string)) "engine-wide check" (Some "byte_conservation") (trips w);
  Alcotest.(check (option string)) "per-link check" (Some "fluid_byte_conservation")
    (trips per_link)

(* ---- hybrid coupling ---- *)

let build_hybrid ?watchdog ~rate_mbps ~bg_flows ~seed () =
  let scope =
    match watchdog with None -> Obs.Scope.none | Some w -> Obs.Scope.v ~watchdog:w ()
  in
  Obs.Scope.with_scope scope @@ fun () ->
  let sim = Sim.create () in
  let rate = U.Units.mbps rate_mbps in
  let limit_bytes = 4 * U.Units.bdp_bytes ~rate_bps:rate ~rtt_s:0.04 in
  let qdisc = Net.Fifo.create ~limit_bytes () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:0.02 ~qdisc () in
  let engine = Fl.Fluid_engine.create ~seed:(seed + 1) () in
  let fl = Fl.Fluid_engine.add_link engine ~capacity_bps:rate ~buffer_bytes:limit_bytes in
  for _ = 1 to bg_flows do
    ignore
      (Fl.Fluid_engine.add_flow engine ~link:fl ~model:Fl.Fluid_model.Reno
         ~rtt_base_s:0.04 ())
  done;
  let driver = Fl.Fluid_driver.attach sim engine ~couplings:[ (fl, topo.Net.Topology.bottleneck) ] in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  ignore (App.Bulk.start sim ~sender:conn.Tcp.Connection.sender ());
  (sim, engine, fl, driver, conn)

let foreground_goodput ~bg_flows =
  let sim, _, _, driver, conn = build_hybrid ~rate_mbps:20.0 ~bg_flows ~seed:21 () in
  Sim.run ~until:10.0 sim;
  Fl.Fluid_driver.catch_up driver ~until_s:10.0;
  float_of_int (Tcp.Receiver.bytes_received conn.Tcp.Connection.receiver) *. 8.0 /. 10.0

let test_hybrid_background_throttles_foreground () =
  let alone = foreground_goodput ~bg_flows:0 in
  let contended = foreground_goodput ~bg_flows:4 in
  Alcotest.(check bool)
    (Printf.sprintf "foreground alone saturates (%.1f Mbit/s)" (U.Units.to_mbps alone))
    true
    (alone >= 0.7 *. U.Units.mbps 20.0);
  Alcotest.(check bool)
    (Printf.sprintf "fluid background takes a share (%.1f vs %.1f Mbit/s)"
       (U.Units.to_mbps contended) (U.Units.to_mbps alone))
    true
    (contended <= 0.6 *. alone)

let test_hybrid_fluid_sees_packet_share () =
  let sim, engine, fl, driver, _ = build_hybrid ~rate_mbps:20.0 ~bg_flows:4 ~seed:22 () in
  Sim.run ~until:10.0 sim;
  Fl.Fluid_driver.catch_up driver ~until_s:10.0;
  Alcotest.(check bool) "fluid clock reached the horizon" true
    (feq ~eps:(2.0 *. Fl.Fluid_engine.dt_s engine) (Fl.Fluid_engine.now_s engine) 10.0);
  let bg = Fl.Fluid_engine.link_served_bytes engine fl *. 8.0 /. 10.0 in
  Alcotest.(check bool) "background moved traffic" true (bg > U.Units.mbps 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "background yielded to the packet flow (%.1f Mbit/s)"
       (U.Units.to_mbps bg))
    true
    (bg <= 0.9 *. U.Units.mbps 20.0)

let test_hybrid_watchdog_trips () =
  let w = Obs.Watchdog.create () in
  let sim, engine, fl, driver, _ =
    build_hybrid ~watchdog:w ~rate_mbps:20.0 ~bg_flows:4 ~seed:23 ()
  in
  Sim.run ~until:2.0 sim;
  Fl.Fluid_engine.inject_accounting_skew engine ~link:fl ~bytes:5e6;
  let tripped =
    try
      Fl.Fluid_driver.catch_up driver ~until_s:2.5;
      None
    with Obs.Watchdog.Violation v -> Some v
  in
  match tripped with
  | None -> Alcotest.fail "hybrid byte-conservation corruption did not trip the watchdog"
  | Some v ->
      (* Whichever conservation check sweeps first — the engine-wide one
         or the per-coupling one — must catch the skew. *)
      Alcotest.(check bool)
        (Printf.sprintf "fluid component tripped (%s)" v.Obs.Watchdog.component)
        true
        (v.Obs.Watchdog.component = "fluid" || v.Obs.Watchdog.component = "fluid/coupling:0");
      Alcotest.(check bool)
        (Printf.sprintf "conservation invariant (%s)" v.Obs.Watchdog.invariant)
        true
        (List.mem v.Obs.Watchdog.invariant [ "byte_conservation"; "fluid_byte_conservation" ])

(* ---- cross-traffic plumbing in lib/net ---- *)

let test_link_cross_rate_validation () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:1e6 ~delay_s:0.01 ~sink:(fun _ -> ()) () in
  Alcotest.(check (float 0.0)) "cross rate starts at zero" 0.0 (Net.Link.cross_rate_bps link);
  Net.Link.set_cross_rate_bps link [| 5e5 |];
  Alcotest.(check (float 0.0)) "cross rate stored" 5e5 (Net.Link.cross_rate_bps link);
  Alcotest.check_raises "negative cross rate rejected"
    (Invalid_argument "Link.set_cross_rate_bps: negative rate") (fun () ->
      Net.Link.set_cross_rate_bps link [| -1.0 |])

let test_fifo_cross_backlog () =
  let q = Net.Fifo.create ~limit_bytes:10_000 () in
  let data seq = Net.Packet.data ~flow:0 ~seq ~payload_bytes:1448 ~retx:false ~sent_at:0.0 () in
  q.Net.Qdisc.set_cross_backlog 9_000;
  Alcotest.(check bool) "cross backlog counts against the limit" false
    (q.Net.Qdisc.enqueue (data 0));
  q.Net.Qdisc.set_cross_backlog 0;
  Alcotest.(check bool) "admission restored when cross traffic drains" true
    (q.Net.Qdisc.enqueue (data 1));
  Alcotest.(check int) "real backlog counts real packets only" 1
    (q.Net.Qdisc.backlog_packets ())

(* ---- the p1 prevalence experiment ---- *)

let test_p1_fluid_small () =
  let r = Core.P1_prevalence.run ~n:60 ~seed:9 () in
  Alcotest.(check bool) "prevalence is a fraction" true
    (r.Core.P1_prevalence.prevalence >= 0.0 && r.Core.P1_prevalence.prevalence <= 1.0);
  Alcotest.(check int) "population accounted" 60
    (List.fold_left
       (fun acc (t : Core.P1_prevalence.tier_row) -> acc + t.Core.P1_prevalence.users)
       0 r.Core.P1_prevalence.tier_rows);
  let rendered = Core.P1_prevalence.render r in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions prevalence" true
    (contains ~sub:"in contention" rendered)

(* ---- the link-major kernel against the four-pass step ---- *)

type ref_flow = {
  link : int;
  model : Fl.Fluid_model.t;
  rtt_base_s : float;
  cap_bps : float;
  on_off_s : (float * float) option;
  start_active : bool;
}

type ref_case = {
  seed : int;
  dt_s : float;
  warmup_s : float;
  links : (float * int) array;  (* capacity, buffer *)
  ref_flows : ref_flow array;  (* in the order they are added *)
  steps : int;
  signals : (int * int * float * int) list;  (* before step k: link, rate, backlog *)
}

let show_ref_case c =
  let flow f =
    Printf.sprintf "{link %d %s rtt %h cap %h %s%s}" f.link (Fl.Fluid_model.name f.model)
      f.rtt_base_s f.cap_bps
      (match f.on_off_s with
      | None -> "always on"
      | Some (on_s, off_s) -> Printf.sprintf "on/off %h/%h" on_s off_s)
      (if f.start_active then "" else " starts off")
  in
  Printf.sprintf "seed %d, dt %h, warmup %h, %d steps\nlinks: %s\nflows: %s\nsignals: %s" c.seed
    c.dt_s c.warmup_s c.steps
    (String.concat "; "
       (Array.to_list (Array.map (fun (cap, buf) -> Printf.sprintf "%h/%d" cap buf) c.links)))
    (String.concat "; " (Array.to_list (Array.map flow c.ref_flows)))
    (String.concat "; "
       (List.map
          (fun (k, l, rate, backlog) -> Printf.sprintf "@%d link %d %h/%d" k l rate backlog)
          c.signals))

(* About a third of the links stay empty, and one occupied link always
   gets three to six always-on flows; the rest of the flows land on
   random occupied links, and the whole list is shuffled so flow ids
   do not follow link order. *)
let ref_case_gen =
  let open QCheck.Gen in
  let* nl = int_range 1 40 in
  let* links = array_repeat nl (pair (float_range 1e6 1e9) (int_range 3_000 3_000_000)) in
  let* empty = array_repeat nl (map (fun u -> u < 0.3) (float_bound_exclusive 1.0)) in
  let occupied = List.filter (fun l -> not empty.(l)) (List.init nl Fun.id) in
  let occupied = if occupied = [] then [ 0 ] else occupied in
  let* crowded = oneofl occupied in
  let flow ~link ~always_on =
    let* model = oneofl Fl.Fluid_model.[ Reno; Cubic; Bbr ] in
    let* rtt_base_s = float_range 0.002 0.3 in
    let* cap_bps = frequency [ (1, return infinity); (3, float_range 1e5 5e8) ] in
    let* on_off_s =
      if always_on then return None else opt (pair (float_range 0.02 2.0) (float_range 0.02 2.0))
    in
    let* start_active = bool in
    return { link; model; rtt_base_s; cap_bps; on_off_s; start_active }
  in
  let* n = int_range 0 300 in
  let* n_crowd = int_range 3 6 in
  let n_crowd = Int.min n n_crowd in
  let* crowd = list_repeat n_crowd (flow ~link:crowded ~always_on:true) in
  let* rest =
    list_repeat (n - n_crowd)
      (let* link = oneofl occupied in
       flow ~link ~always_on:false)
  in
  let ref_flows = Array.of_list (crowd @ rest) in
  let* () = shuffle_a ref_flows in
  let* steps = int_range 1 200 in
  let* dt_s = oneofl [ 0.005; 0.01; 0.02 ] in
  let* mid_warmup = bool in
  let warmup_s = if mid_warmup then float_of_int (steps / 2) *. dt_s else 0.0 in
  let* seed = int_bound 1_000_000 in
  let rate = frequency [ (1, float_range (-1e7) 0.0); (6, float_range 0.0 1.2e9); (1, return infinity) ] in
  let* signals =
    list_size (int_range 0 20)
      (quad (int_bound (steps - 1)) (int_bound (nl - 1)) rate (int_range (-1_000) 3_000_000))
  in
  return { seed; dt_s; warmup_s; links; ref_flows; steps; signals }

(* Cases aimed at the kernel's idle skip and at links whose queueing
   delay repeats from step to step, which [ref_case_gen] reaches only
   by chance. Each link takes one of four regimes:
   - draining: a 1-10 Mbit/s link whose one to four uncapped flows
     start on, build a queue at once and switch off after short
     on-periods, so it spends steps with no active flow and a queue
     still draining (not idle: its queue must settle);
   - uncongested: a 1 Gbit/s link whose capped flows toggle every few
     steps while its queue stays 0.0, so toggles land on a link whose
     queueing delay did not change;
   - pinned: a 1-10 Mbit/s link with a buffer of two to twenty packets
     whose uncapped flows overflow it, so the queue sits exactly at
     the buffer and the delay repeats while flows toggle; the arrival
     is above capacity there, so the pre-step sum sets the service
     ratio;
   - empty: no flows, so the idle skip runs on every step.
   Packet signals hit every regime with a backlog that repeats (the
   delay stays bitwise the same) or changes while the queue is 0.0,
   and a rate below, at or above capacity (s = 0). *)
let skip_case_gen =
  let open QCheck.Gen in
  let* nl = int_range 1 8 in
  let* regimes = array_repeat nl (oneofl [ `Draining; `Uncongested; `Pinned; `Empty ]) in
  let link_of = function
    | `Draining -> pair (float_range 1e6 1e7) (int_range 100_000 3_000_000)
    | `Pinned -> pair (float_range 1e6 1e7) (int_range 3_000 30_000)
    | `Uncongested | `Empty -> pair (return 1e9) (int_range 3_000 3_000_000)
  in
  let* links = flatten_a (Array.map link_of regimes) in
  let flow l ~rtt ~cap ~on_off ~start =
    let* model = oneofl Fl.Fluid_model.[ Reno; Cubic; Bbr ] in
    let* rtt_base_s = rtt and* cap_bps = cap and* on_off_s = on_off and* start_active = start in
    return { link = l; model; rtt_base_s; cap_bps; on_off_s; start_active }
  in
  let flows_of l = function
    | `Empty -> return []
    | `Draining ->
        list_size (int_range 1 4)
          (flow l ~rtt:(float_range 0.01 0.1) ~cap:(return infinity)
             ~on_off:(map Option.some (pair (float_range 0.05 0.3) (float_range 2.0 10.0)))
             ~start:(return true))
    | `Uncongested ->
        list_size (int_range 1 6)
          (flow l ~rtt:(float_range 0.005 0.2) ~cap:(float_range 1e5 1e7)
             ~on_off:(opt ~ratio:0.8 (pair (float_range 0.02 0.2) (float_range 0.02 0.2)))
             ~start:bool)
    | `Pinned ->
        list_size (int_range 2 6)
          (flow l ~rtt:(float_range 0.01 0.1) ~cap:(return infinity)
             ~on_off:(opt ~ratio:0.7 (pair (float_range 0.05 0.5) (float_range 0.05 0.5)))
             ~start:bool)
  in
  let* per_link = flatten_l (List.init nl (fun l -> flows_of l regimes.(l))) in
  let ref_flows = Array.of_list (List.concat per_link) in
  let* () = shuffle_a ref_flows in
  let* steps = int_range 100 300 in
  let signal =
    let* k = int_bound (steps - 1) and* l = int_bound (nl - 1) in
    let cap = fst links.(l) in
    let* rate =
      frequency
        [ (4, float_range 0.0 (0.5 *. cap)); (1, return cap); (1, float_range cap (2.0 *. cap)) ]
    in
    let* backlog = frequency [ (4, return 0); (2, return 1_500); (1, int_range 0 200_000) ] in
    return (k, l, rate, backlog)
  in
  let* signals = list_size (int_range 0 30) signal in
  let* seed = int_bound 1_000_000 in
  return { seed; dt_s = 0.01; warmup_s = 0.5; links; ref_flows; steps; signals }

(* Cases aimed at the active prefix and the toggle calendar (256
   steps), which the two generators above reach only in part. Means are
   drawn in steps and scaled by the step size, which is 5 or 10 ms or,
   in a quarter of the cases, subnormal, where the clock adds exactly
   and the filing bound has no rounding to lean on. Each link takes one
   of four regimes:
   - crowd: 64 on/off flows with means of 1 to 30 steps, so several
     toggle on most steps and each link's prefix is reordered often;
   - beyond: one to four flows with means of 150 to 500 steps, past the
     calendar's span, so a toggle is filed at the span's end, refiled
     and fires within the run;
   - far: one to three flows with means of 10^5 to 10^11 steps, refiled
     at every span and never due;
   - empty: no flows.
   In a quarter of the cases every flow starts off, so the population
   is entirely off at seal, and packet signals land on random steps
   while flows toggle. *)
let calendar_case_gen =
  let open QCheck.Gen in
  let* dt_s = frequency [ (3, return 0.005); (3, return 0.01); (1, return 3e-310); (1, return 0x1p-1060) ] in
  let* nl = int_range 1 5 in
  let* regimes = array_repeat nl (oneofl [ `Crowd; `Beyond; `Far; `Empty ]) in
  let* links = array_repeat nl (pair (float_range 1e6 1e8) (int_range 3_000 300_000)) in
  let* all_off = map (fun u -> u < 0.25) (float_bound_exclusive 1.0) in
  let flow l ~mean_steps =
    let mean = map (fun k -> k *. dt_s) mean_steps in
    let* model = oneofl Fl.Fluid_model.[ Reno; Cubic; Bbr ] in
    let* rtt_base_s = float_range 0.005 0.2 in
    let* cap_bps = frequency [ (1, return infinity); (2, float_range 1e5 5e7) ] in
    let* on_s = mean and* off_s = mean in
    let* start_active = if all_off then return false else bool in
    return { link = l; model; rtt_base_s; cap_bps; on_off_s = Some (on_s, off_s); start_active }
  in
  let flows_of l = function
    | `Empty -> return []
    | `Crowd -> list_repeat 64 (flow l ~mean_steps:(float_range 1.0 30.0))
    | `Beyond -> list_size (int_range 1 4) (flow l ~mean_steps:(float_range 150.0 500.0))
    | `Far ->
        list_size (int_range 1 3)
          (flow l ~mean_steps:(map (fun e -> 10.0 ** e) (float_range 5.0 11.0)))
  in
  let* per_link = flatten_l (List.init nl (fun l -> flows_of l regimes.(l))) in
  let ref_flows = Array.of_list (List.concat per_link) in
  let* () = shuffle_a ref_flows in
  let* steps = int_range 300 700 in
  let signal =
    let* k = int_bound (steps - 1) and* l = int_bound (nl - 1) in
    let cap = fst links.(l) in
    let* rate = float_range 0.0 (1.5 *. cap) in
    let* backlog = frequency [ (2, return 0); (1, int_range 0 200_000) ] in
    return (k, l, rate, backlog)
  in
  let* signals = list_size (int_range 0 40) signal in
  let* seed = int_bound 1_000_000 in
  return { seed; dt_s; warmup_s = 0.5; links; ref_flows; steps; signals }

(* Cases aimed at the reduced step of a frozen link: after a full
   step whose queue stayed exactly 0.0, with no packet signal, an
   arrival that repeated and fit the link, every flow at its cap and
   every BBR window still, the next step only replays that step's
   increments. Each link takes one of four regimes:
   - under: one to four Reno, CUBIC or BBR flows whose caps sum below
     a 1-5 Mbit/s capacity, some on/off with means of 50 to 500 steps,
     so the link freezes and toggles land on it; buffers of 2 to 20
     packets let Reno and CUBIC windows reach their upper clamp while
     frozen, within the 2,000 steps;
   - floor: BBR flows capped under 1 kbit/s with base RTTs under
     0.5 ms, whose windows sink to the 1e3 floor and stay there, beside
     one capped Reno or CUBIC flow;
   - edge: always-on flows capped at 10 to 500 kbit/s on a link whose
     capacity is their capped sum, in flow-id order, exactly or 5%
     either side; with a subnormal step, 3 or 4 units of the step's
     resolution (2^-1074 / dt) below it. The queue's growth,
     (arrival - capacity) dt / 8, then rounds to 0.0 on every step, so
     the queue clause cannot see the overload and only the arrival
     clause of the freeze rule keeps the link thawed;
   - over: two to four on/off flows capped at 0.3 to 0.8 of capacity,
     whose sum crosses capacity as they toggle, so a queue builds,
     drains and the link refreezes.
   The step is 5, 10 or 20 ms or, in a quarter of the cases, 2^-1060 s;
   the warmup ends at a random step, often inside a frozen stretch.
   Packet signals land on random steps, frozen links included: zero
   ones, rates below and above capacity, and backlogs that move the
   queueing delay and with it the windows' clamp. A window that the
   reduced step got wrong shows only once it decides a rate again,
   under such an overload or delay. *)
let freeze_case_gen =
  let open QCheck.Gen in
  let* dt_s = oneofl [ 0.005; 0.01; 0.02; 0x1p-1060 ] in
  let* nl = int_range 1 6 in
  let* regimes = array_repeat nl (oneofl [ `Under; `Floor; `Edge; `Over ]) in
  let* capacities =
    flatten_a
      (Array.map (function `Under -> float_range 1e6 5e6 | _ -> float_range 1e6 2e7) regimes)
  in
  let* buffers =
    flatten_a
      (Array.map (function `Under -> int_range 3_000 30_000 | _ -> int_range 3_000 300_000) regimes)
  in
  let flow l ~models ~rtt ~cap ~on_off ~start =
    let* model = oneofl models in
    let* rtt_base_s = rtt and* cap_bps = cap and* on_off_s = on_off and* start_active = start in
    return { link = l; model; rtt_base_s; cap_bps; on_off_s; start_active }
  in
  let all = Fl.Fluid_model.[ Reno; Cubic; Bbr ] and windowed = Fl.Fluid_model.[ Reno; Cubic ] in
  let mean lo hi = map (fun k -> k *. dt_s) (float_range lo hi) in
  let flows_of l =
    let cap = capacities.(l) in
    match regimes.(l) with
    | `Under ->
        let* n = int_range 1 4 in
        list_repeat n
          (flow l ~models:all ~rtt:(float_range 0.005 0.2)
             ~cap:(float_range 1e5 (0.9 *. cap /. float_of_int n))
             ~on_off:(opt ~ratio:0.5 (pair (mean 50.0 500.0) (mean 50.0 500.0)))
             ~start:(frequencyl [ (3, true); (1, false) ]))
    | `Floor ->
        let* bbrs =
          list_size (int_range 1 3)
            (flow l ~models:[ Fl.Fluid_model.Bbr ] ~rtt:(float_range 0.0001 0.0005)
               ~cap:(float_range 100.0 999.0) ~on_off:(return None) ~start:(return true))
        in
        let* other =
          flow l ~models:windowed ~rtt:(float_range 0.005 0.2) ~cap:(float_range 1e5 1e6)
            ~on_off:(return None) ~start:(return true)
        in
        return (other :: bbrs)
    | `Edge ->
        list_size (int_range 1 4)
          (flow l ~models:all ~rtt:(float_range 0.005 0.2) ~cap:(float_range 1e4 5e5)
             ~on_off:(return None) ~start:(return true))
    | `Over ->
        list_size (int_range 2 4)
          (flow l ~models:all ~rtt:(float_range 0.005 0.2)
             ~cap:(float_range (0.3 *. cap) (0.8 *. cap))
             ~on_off:(map Option.some (pair (mean 20.0 200.0) (mean 20.0 200.0)))
             ~start:bool)
  in
  let* per_link = flatten_l (List.init nl flows_of) in
  let ref_flows = Array.of_list (List.concat per_link) in
  let* () = shuffle_a ref_flows in
  (* An edge link's capacity is its flows' capped sum as the kernel
     adds it: in flow-id order, from 0.0. *)
  let sum l =
    Array.fold_left (fun acc f -> if f.link = l then acc +. f.cap_bps else acc) 0.0 ref_flows
  in
  let* nudges =
    array_repeat nl
      (if dt_s < 0x1p-1022 then
         map (fun k a -> a -. (float_of_int k *. 0x1p-1074 /. dt_s)) (int_range 3 4)
       else oneofl [ Fun.id; ( *. ) 1.05; ( *. ) 0.95 ])
  in
  let links =
    Array.init nl (fun l ->
        match regimes.(l) with
        | `Edge -> (nudges.(l) (sum l), buffers.(l))
        | `Under | `Floor | `Over -> (capacities.(l), buffers.(l)))
  in
  let* steps = int_range 200 2_000 in
  let* warmup_steps = int_bound steps in
  let signal =
    let* k = int_bound (steps - 1) and* l = int_bound (nl - 1) in
    let cap = fst links.(l) in
    let* rate =
      frequency
        [ (2, return 0.0); (2, float_range 0.0 cap); (2, float_range cap (2.0 *. cap)) ]
    in
    let* backlog = frequency [ (2, return 0); (1, return 1_500); (3, int_range 0 200_000) ] in
    return (k, l, rate, backlog)
  in
  let* signals = list_size (int_range 0 20) signal in
  let* seed = int_bound 1_000_000 in
  return
    { seed; dt_s; warmup_s = float_of_int warmup_steps *. dt_s; links; ref_flows; steps; signals }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The case built on the kernel and on the four-pass reference. *)
let build_both c =
  let module E = Fl.Fluid_engine in
  let module R = Ref_fluid_engine in
  let dt_s = c.dt_s and warmup_s = c.warmup_s and seed = c.seed in
  let fast = E.create ~dt_s ~warmup_s ~seed () and slow = R.create ~dt_s ~warmup_s ~seed () in
  Array.iter
    (fun (capacity_bps, buffer_bytes) ->
      ignore (E.add_link fast ~capacity_bps ~buffer_bytes);
      ignore (R.add_link slow ~capacity_bps ~buffer_bytes))
    c.links;
  Array.iter
    (fun f ->
      let { link; model; rtt_base_s; cap_bps; on_off_s; start_active } = f in
      ignore (E.add_flow fast ~link ~model ~rtt_base_s ~cap_bps ?on_off_s ~start_active ());
      ignore (R.add_flow slow ~link ~model ~rtt_base_s ~cap_bps ?on_off_s ~start_active ()))
    c.ref_flows;
  (fast, slow)

(* The case's packet signals due before step [k], on both engines. *)
let signal_both c fast slow k =
  List.iter
    (fun (at, link, rate_bps, backlog_bytes) ->
      if at = k then begin
        Fl.Fluid_engine.set_packet_signals fast ~link [| rate_bps |] ~backlog_bytes;
        Ref_fluid_engine.set_packet_signals slow ~link ~rate_bps ~backlog_bytes
      end)
    c.signals

(* Build the case on both engines and step them side by side; after
   every step the totals, every link accessor and every flow's goodput
   agree bit for bit. *)
let kernel_matches_reference c =
  let module E = Fl.Fluid_engine in
  let module R = Ref_fluid_engine in
  let fast, slow = build_both c in
  let agree () =
    let tf = E.totals fast and ts = R.totals slow in
    same_bits tf.E.offered_bytes ts.E.offered_bytes
    && same_bits tf.E.served_bytes ts.E.served_bytes
    && same_bits tf.E.dropped_bytes ts.E.dropped_bytes
    && same_bits tf.E.queued_bytes ts.E.queued_bytes
    && same_bits (E.residual_bytes fast) (R.residual_bytes slow)
    && List.for_all
         (fun l ->
           same_bits (E.link_capacity_bps fast l) (R.link_capacity_bps slow l)
           && same_bits (E.link_served_bps fast l) (R.link_served_bps slow l)
           && same_bits (E.link_queue_bytes fast l) (R.link_queue_bytes slow l)
           && same_bits (E.link_contended_s fast l) (R.link_contended_s slow l)
           && same_bits (E.link_served_bytes fast l) (R.link_served_bytes slow l)
           && same_bits (E.link_residual_bytes fast l) (R.link_residual_bytes slow l))
         (List.init (Array.length c.links) Fun.id)
    && List.for_all
         (fun i -> same_bits (E.flow_goodput_bps fast i) (R.flow_goodput_bps slow i))
         (List.init (Array.length c.ref_flows) Fun.id)
  in
  let rec go k =
    k = c.steps
    || begin
         signal_both c fast slow k;
         E.step fast;
         R.step slow;
         agree () && go (k + 1)
       end
  in
  go 0

(* A frozen link defers its flows' windows and goodputs and its own
   offered and served bytes, and replays them when it thaws or is
   read. So read only at some steps, [reads.(k)] after step k, and
   between reads let frozen links run deferred for as long as they
   stay frozen: at each read every link's served bytes, residual and
   served rate, every flow's goodput and the engine totals agree bit
   for bit with the four-pass step, and so does every output at the
   end. *)
let deferred_matches_reference (c, reads) =
  let module E = Fl.Fluid_engine in
  let module R = Ref_fluid_engine in
  let fast, slow = build_both c in
  let links = List.init (Array.length c.links) Fun.id in
  let flows = List.init (Array.length c.ref_flows) Fun.id in
  let totals_agree () =
    let tf = E.totals fast and ts = R.totals slow in
    same_bits tf.E.offered_bytes ts.E.offered_bytes
    && same_bits tf.E.served_bytes ts.E.served_bytes
    && same_bits tf.E.dropped_bytes ts.E.dropped_bytes
    && same_bits tf.E.queued_bytes ts.E.queued_bytes
  in
  let read_agree () =
    totals_agree ()
    && List.for_all
         (fun l ->
           same_bits (E.link_served_bytes fast l) (R.link_served_bytes slow l)
           && same_bits (E.link_residual_bytes fast l) (R.link_residual_bytes slow l)
           && same_bits (E.link_served_bps fast l) (R.link_served_bps slow l))
         links
    && List.for_all
         (fun i -> same_bits (E.flow_goodput_bps fast i) (R.flow_goodput_bps slow i))
         flows
  in
  let final_agree () =
    same_bits (E.residual_bytes fast) (R.residual_bytes slow)
    && List.for_all
         (fun l ->
           same_bits (E.link_queue_bytes fast l) (R.link_queue_bytes slow l)
           && same_bits (E.link_contended_s fast l) (R.link_contended_s slow l))
         links
    && read_agree ()
  in
  let rec go k =
    k = c.steps
    || begin
         signal_both c fast slow k;
         E.step fast;
         R.step slow;
         ((not reads.(k)) || read_agree ()) && go (k + 1)
       end
  in
  go 0 && final_agree ()

(* A frozen-link or calendar case, and after which steps to read:
   each step with one probability per case, from about every other
   step down to a few reads in a run, so deferred stretches run from
   one step to the whole run. *)
let deferred_case_gen =
  let open QCheck.Gen in
  let* c = oneof [ freeze_case_gen; calendar_case_gen ] in
  let* p = oneofl [ 0.002; 0.02; 0.1; 0.5 ] in
  let* reads = array_repeat c.steps (map (fun u -> u < p) (float_bound_exclusive 1.0)) in
  return (c, reads)

let show_deferred_case (c, reads) =
  let at = List.filter (fun k -> reads.(k)) (List.init (Array.length reads) Fun.id) in
  Printf.sprintf "%s\nreads after steps: %s" (show_ref_case c)
    (String.concat " " (List.map string_of_int at))

(* A population stepped on a Sim by Fluid_driver, with no couplings,
   takes exactly the steps a direct loop takes: [Sim.run] to N dt and
   [catch_up] leave it where N calls of [step] leave an identical copy,
   bit for bit, census included. The cases' packet signals stand for a
   coupling, so neither copy applies them. *)
let driven_matches_direct c =
  let module E = Fl.Fluid_engine in
  let build () =
    let e = E.create ~dt_s:c.dt_s ~warmup_s:c.warmup_s ~seed:c.seed () in
    Array.iter
      (fun (capacity_bps, buffer_bytes) -> ignore (E.add_link e ~capacity_bps ~buffer_bytes))
      c.links;
    Array.iter
      (fun { link; model; rtt_base_s; cap_bps; on_off_s; start_active } ->
        ignore (E.add_flow e ~link ~model ~rtt_base_s ~cap_bps ?on_off_s ~start_active ()))
      c.ref_flows;
    e
  in
  let direct = build () and driven = build () in
  for _ = 1 to c.steps do
    E.step direct
  done;
  run_engine driven ~until_s:(float_of_int c.steps *. c.dt_s);
  let td = E.totals direct and tv = E.totals driven in
  same_bits td.E.offered_bytes tv.E.offered_bytes
  && same_bits td.E.served_bytes tv.E.served_bytes
  && same_bits td.E.dropped_bytes tv.E.dropped_bytes
  && same_bits td.E.queued_bytes tv.E.queued_bytes
  && E.link_steps direct = E.link_steps driven
  && List.for_all
       (fun l ->
         same_bits (E.link_served_bytes direct l) (E.link_served_bytes driven l)
         && same_bits (E.link_contended_s direct l) (E.link_contended_s driven l))
       (List.init (Array.length c.links) Fun.id)
  && List.for_all
       (fun i -> same_bits (E.flow_goodput_bps direct i) (E.flow_goodput_bps driven i))
       (List.init (Array.length c.ref_flows) Fun.id)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"fluid: a population driven on a Sim matches direct steps bit for bit"
      ~count:200
      (make ~print:show_ref_case (Gen.oneof [ calendar_case_gen; freeze_case_gen ]))
      driven_matches_direct;
    Test.make ~name:"fluid kernel matches the four-pass step bit for bit" ~count:500
      (make ~print:show_ref_case ref_case_gen)
      kernel_matches_reference;
    Test.make ~name:"fluid kernel's skips match the four-pass step bit for bit" ~count:500
      (make ~print:show_ref_case skip_case_gen)
      kernel_matches_reference;
    Test.make ~name:"fluid kernel's prefix and calendar match the four-pass step bit for bit"
      ~count:500
      (make ~print:show_ref_case calendar_case_gen)
      kernel_matches_reference;
    Test.make ~name:"fluid kernel's reduced step matches the four-pass step bit for bit"
      ~count:500
      (make ~print:show_ref_case freeze_case_gen)
      kernel_matches_reference;
    Test.make
      ~name:
        "fluid: a frozen link's deferred steps match the four-pass step bit for bit, read at any \
         step"
      ~count:500
      (make ~print:show_deferred_case deferred_case_gen)
      deferred_matches_reference;
    (* Twin streams: the toggle path's draw takes its uniform through a
       float-array slot and finishes the exponential itself; every draw
       must equal [Rng.exponential]'s, for means of every magnitude. *)
    Test.make ~name:"fluid: toggle draws equal Rng.exponential bit for bit" ~count:2_000
      (make
         ~print:(fun (seed, mean) -> Printf.sprintf "seed %d, mean %h" seed mean)
         Gen.(
           pair int
             (map
                (fun x ->
                  let x = Float.abs x in
                  if Float.is_finite x && x > 0.0 then x else 1.0)
                Test_obs.float_classes)))
      (fun (seed, mean) ->
        let a = U.Rng.create seed and b = U.Rng.create seed and slot = [| 0.0 |] in
        List.for_all
          (fun _ ->
            same_bits (U.Rng.exponential a ~mean) (Fl.Fluid_engine.exponential_draw b slot ~mean))
          (List.init 32 Fun.id));
    (* Pairs of every float class, and ties (x, x) and (x, -x), which
       are the inputs that reach the Stdlib fallback. *)
    Test.make ~name:"fluid: kernel min/max equal Float.min/Float.max bit for bit" ~count:20_000
      (make
         ~print:(fun (x, y) -> Printf.sprintf "%h %h" x y)
         Gen.(
           let f = Test_obs.float_classes in
           frequency [ (3, pair f f); (1, map (fun x -> (x, x)) f); (1, map (fun x -> (x, -.x)) f) ]))
      (fun (x, y) ->
        same_bits (Fl.Fluid_engine.float_min x y) (Float.min x y)
        && same_bits (Fl.Fluid_engine.float_max x y) (Float.max x y));
  ]

(* The step allocates nothing, toggles included: always-on
   populations, and on/off ones whose means are a tenth of the 10 ms
   step, so nearly every flow toggles, draws and is refiled on every
   step. Always-on flows capped at 1 Mbit/s, two to a 50 Mbit/s link,
   freeze every link by its second step (the first clamps BBR's
   window), so at least 49 of each link's 50 measured steps are
   reduced ones. The measurement's own [Gc.counters] calls cost a few
   words, spread over the 50 steps. Those links are still frozen after
   the last step, with 50 steps deferred: a zero skew on each (a no-op
   on its bytes) replays them, which allocates nothing either. *)
let test_step_allocation () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  List.iter
    (fun (flows, on_off_s, cap_bps) ->
      let engine = Fl.Fluid_engine.create ~seed:3 () in
      let link = ref 0 in
      for i = 0 to flows - 1 do
        if i mod 2 = 0 then
          link := Fl.Fluid_engine.add_link engine ~capacity_bps:(U.Units.mbps 50.0)
              ~buffer_bytes:200_000;
        ignore
          (Fl.Fluid_engine.add_flow engine ~link:!link ~model:(Fl.Fluid_model.of_index (i mod 3))
             ~rtt_base_s:(0.02 +. (0.001 *. float_of_int (i mod 50))) ~cap_bps ?on_off_s ())
      done;
      Fl.Fluid_engine.step engine;
      let _, reduced0, _ = Fl.Fluid_engine.link_steps engine in
      let words0 = words () in
      for _ = 1 to 50 do
        Fl.Fluid_engine.step engine
      done;
      let per_step = (words () -. words0) /. 50.0 in
      let _, reduced, _ = Fl.Fluid_engine.link_steps engine in
      let kind =
        if Option.is_some on_off_s then "on/off"
        else if cap_bps < infinity then "capped always-on"
        else "always-on"
      in
      if cap_bps < infinity then begin
        Alcotest.(check bool)
          (Printf.sprintf "%d %s flows: %d reduced link-steps of %d" flows kind
             (reduced - reduced0) (50 * flows / 2))
          true
          (reduced - reduced0 >= 49 * flows / 2);
        let words1 = words () in
        for link = 0 to (flows / 2) - 1 do
          Fl.Fluid_engine.inject_accounting_skew engine ~link ~bytes:0.0
        done;
        let per_replay = (words () -. words1) /. float_of_int (flows / 2) in
        Alcotest.(check bool)
          (Printf.sprintf "%d %s flows: under 1 word per link replay (%.2f)" flows kind
             per_replay)
          true (per_replay < 1.0)
      end;
      Alcotest.(check bool)
        (Printf.sprintf "%d %s flows: under 1 word per step (%.2f)" flows kind per_step)
        true (per_step < 1.0))
    [
      (2_000, None, infinity);
      (20_000, None, infinity);
      (2_000, Some (0.001, 0.001), infinity);
      (20_000, Some (0.001, 0.001), infinity);
      (2_000, None, U.Units.mbps 1.0);
      (20_000, None, U.Units.mbps 1.0);
    ]

(* A coupled step hands the packet delivered rate to the fluid link,
   and the fluid served rate and queue back to the packet link, through
   float-array slots, so like an uncoupled step it allocates nothing. A
   float kept in a mutable field of a mixed record, or passed across a
   module boundary under dune's dev profile (-opaque), boxes on every
   step: 2 words each. The link carries no packets, so the run's only
   events are the 200 measured steps. *)
let test_coupled_step_allocation () =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let sim = Sim.create () in
  let rate_bps = U.Units.mbps 20.0 in
  let link = Net.Link.create sim ~rate_bps ~delay_s:0.01 ~sink:ignore () in
  let engine = Fl.Fluid_engine.create ~seed:8 () in
  let fl = Fl.Fluid_engine.add_link engine ~capacity_bps:rate_bps ~buffer_bytes:100_000 in
  for i = 0 to 3 do
    ignore
      (Fl.Fluid_engine.add_flow engine ~link:fl ~model:(Fl.Fluid_model.of_index (i mod 3))
         ~rtt_base_s:0.04 ())
  done;
  ignore (Fl.Fluid_driver.attach sim engine ~couplings:[ (fl, link) ]);
  Sim.run ~until:1.0 sim;
  let words0 = words () in
  Sim.run ~until:3.0 sim;
  let per_step = (words () -. words0) /. 200.0 in
  Alcotest.(check bool) "the fluid share is on the wire" true (Net.Link.cross_rate_bps link > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "under 1 word per coupled step (%.2f)" per_step)
    true (per_step < 1.0)

let suite =
  [
    Alcotest.test_case "model: name/index roundtrips" `Quick test_model_names;
    Alcotest.test_case "engine: one flow fills a link" `Quick test_single_flow_fills_link;
    Alcotest.test_case "engine: byte conservation is exact" `Quick test_conservation_exact;
    Alcotest.test_case "engine: same seed, identical results" `Quick test_determinism_same_seed;
    Alcotest.test_case "engine: population seals on first step" `Quick test_sealed_after_step;
    Alcotest.test_case "xval: 4-flow dumbbell fluid vs packet" `Slow test_cross_validation_4flow;
    Alcotest.test_case "watchdog: injected skew trips conservation" `Quick
      test_watchdog_trips_on_skew;
    Alcotest.test_case "hybrid: background throttles foreground" `Slow
      test_hybrid_background_throttles_foreground;
    Alcotest.test_case "hybrid: fluid share yields to packet flow" `Slow
      test_hybrid_fluid_sees_packet_share;
    Alcotest.test_case "hybrid: coupling watchdog trips on skew" `Quick
      test_hybrid_watchdog_trips;
    Alcotest.test_case "net: link cross-rate term validated" `Quick
      test_link_cross_rate_validation;
    Alcotest.test_case "net: fifo admission sees cross backlog" `Quick test_fifo_cross_backlog;
    Alcotest.test_case "p1: small fluid population runs" `Quick test_p1_fluid_small;
    Alcotest.test_case "engine: non-finite inputs rejected" `Quick test_non_finite_rejected;
    Alcotest.test_case "watchdog: NaN residue trips conservation" `Quick
      test_watchdog_trips_on_nan;
    Alcotest.test_case "fluid: step allocation flat in the population" `Quick
      test_step_allocation;
    Alcotest.test_case "fluid: a coupled step allocates nothing" `Quick
      test_coupled_step_allocation;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
