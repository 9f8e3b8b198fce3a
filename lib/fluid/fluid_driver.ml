module Obs = Ccsim_obs
module Sim = Ccsim_engine.Sim
module Link = Ccsim_net.Link

(* EWMA weight for the packet delivered-rate signal fed to the fluid
   side: ~3 steps of memory smooths packet burstiness without hiding
   rate shifts from the fluid flows. *)
let rate_ewma_alpha = 0.3

(* The coupling's floats live in float-array slots: a mutable float
   field here, or a float passed to or returned from another module
   (dune's dev profile compiles with -opaque), would box on every
   step. *)
type coupling = {
  fluid_link : Fluid_engine.link_id;
  link : Link.t;
  mutable last_bytes : int;  (* Link.bytes_delivered at the previous tick *)
  ewma_bps : float array;  (* [|the packet delivered-rate EWMA, bit/s|] *)
  cross : float array;  (* [|fluid served rate, bit/s; fluid queue, bytes|] *)
}

type t = {
  sim : Sim.t;
  engine : Fluid_engine.t;
  dt_s : float;
  couplings : coupling list;
  profile : Obs.Profile.t option;
  mutable noted : int * int * int;  (* the link-step census noted on [profile] so far *)
}

(* packet -> fluid: current packet cross traffic per coupled link.
   Recursion over the list rather than [List.iter], so a step builds no
   closure. *)
let rec signal_fluid t = function
  | [] -> ()
  | c :: rest ->
      let bytes = Link.bytes_delivered c.link in
      let inst = float_of_int (bytes - c.last_bytes) *. 8.0 /. t.dt_s in
      c.last_bytes <- bytes;
      c.ewma_bps.(0) <- ((1.0 -. rate_ewma_alpha) *. c.ewma_bps.(0)) +. (rate_ewma_alpha *. inst);
      Fluid_engine.set_packet_signals t.engine ~link:c.fluid_link c.ewma_bps
        ~backlog_bytes:((Link.qdisc c.link).Ccsim_net.Qdisc.backlog_bytes ());
      signal_fluid t rest

(* fluid -> packet: the served aggregate becomes the cross-traffic rate
   and buffer share the packet side must live with. *)
let rec signal_packets t = function
  | [] -> ()
  | c :: rest ->
      Fluid_engine.link_cross_into t.engine c.fluid_link c.cross;
      Link.set_cross_rate_bps c.link c.cross;
      (Link.qdisc c.link).Ccsim_net.Qdisc.set_cross_backlog (int_of_float c.cross.(1));
      signal_packets t rest

let step t =
  signal_fluid t t.couplings;
  Fluid_engine.step t.engine;
  signal_packets t t.couplings

let attach sim engine ~couplings =
  if Fluid_engine.now_s engine > 0.0 then
    invalid_arg "Fluid_driver.attach: fluid engine already stepped";
  (* Seal now, so no step event pays for building the index. *)
  Fluid_engine.seal engine;
  let couplings =
    List.map
      (fun (fluid_link, link) ->
        {
          fluid_link;
          link;
          last_bytes = Link.bytes_delivered link;
          ewma_bps = [| 0.0 |];
          cross = [| 0.0; 0.0 |];
        })
      couplings
  in
  let t =
    {
      sim;
      engine;
      dt_s = Fluid_engine.dt_s engine;
      couplings;
      profile = (Obs.Scope.ambient ()).Obs.Scope.profile;
      noted = (0, 0, 0);
    }
  in
  (* The stepper is an ordinary periodic event, charged to [Fluid]: it
     keeps the run alive to its horizon, like any traffic source. *)
  Sim.every sim ~interval:t.dt_s (fun () ->
      Sim.set_component sim Obs.Profile.Fluid;
      step t);
  (match Sim.watchdog sim with
  | Some w ->
      List.iter
        (fun c ->
          Fluid_engine.register_link_invariant engine
            ~component:(Printf.sprintf "fluid/coupling:%d" c.fluid_link) w c.fluid_link)
        t.couplings
  | None -> ());
  List.iter
    (fun c ->
      let l = c.fluid_link in
      let labels = [ ("fluid_link", string_of_int l) ] in
      Sim.add_timeline_probe sim ~labels "fluid_cross_bps" (fun () ->
          Fluid_engine.link_served_bps engine l);
      Sim.add_timeline_probe sim ~labels "fluid_cross_queue_bytes" (fun () ->
          Fluid_engine.link_queue_bytes engine l);
      Sim.add_timeline_probe sim ~labels "packet_cross_bps" (fun () -> c.ewma_bps.(0)))
    t.couplings;
  t

let catch_up t ~until_s =
  while Fluid_engine.now_s t.engine < until_s -. (0.5 *. t.dt_s) do
    step t
  done;
  (match t.profile with
  | Some p ->
      let idle, reduced, full = Fluid_engine.link_steps t.engine in
      let idle0, reduced0, full0 = t.noted in
      Obs.Profile.note_fluid_link_steps p ~idle:(idle - idle0) ~reduced:(reduced - reduced0)
        ~full:(full - full0);
      t.noted <- (idle, reduced, full)
  | None -> ());
  match Sim.watchdog t.sim with
  | Some w -> Obs.Watchdog.check_now w ~now:(Fluid_engine.now_s t.engine)
  | None -> ()
