module Obs = Ccsim_obs
module Sim = Ccsim_engine.Sim
module Link = Ccsim_net.Link

(* EWMA weight for the packet delivered-rate signal fed to the fluid
   side: ~3 steps of memory smooths packet burstiness without hiding
   rate shifts from the fluid flows. *)
let rate_ewma_alpha = 0.3

type coupling = {
  fluid_link : Fluid_engine.link_id;
  link : Link.t;
  mutable last_bytes : int;  (* Link.bytes_delivered at the previous tick *)
  mutable ewma_bps : float;
}

type t = {
  sim : Sim.t;
  engine : Fluid_engine.t;
  couplings : coupling list;
}

let step_couplings t =
  let dt = Fluid_engine.dt_s t.engine in
  (* 1. packet -> fluid: current packet cross traffic per coupled link *)
  List.iter
    (fun c ->
      let bytes = Link.bytes_delivered c.link in
      let inst = float_of_int (bytes - c.last_bytes) *. 8.0 /. dt in
      c.last_bytes <- bytes;
      c.ewma_bps <-
        ((1.0 -. rate_ewma_alpha) *. c.ewma_bps) +. (rate_ewma_alpha *. inst);
      Fluid_engine.set_packet_signals t.engine ~link:c.fluid_link
        ~rate_bps:c.ewma_bps
        ~backlog_bytes:((Link.qdisc c.link).Ccsim_net.Qdisc.backlog_bytes ()))
    t.couplings;
  (* 2. advance the fluid population one step *)
  Fluid_engine.step t.engine;
  (* 3. fluid -> packet: served aggregate becomes the cross-traffic rate
     and buffer share the packet side must live with *)
  List.iter
    (fun c ->
      Link.set_cross_rate_bps c.link
        (Fluid_engine.link_served_bps t.engine c.fluid_link);
      (Link.qdisc c.link).Ccsim_net.Qdisc.set_cross_backlog
        (int_of_float (Fluid_engine.link_queue_bytes t.engine c.fluid_link)))
    t.couplings

let attach sim engine ~couplings =
  if Fluid_engine.now_s engine > 0.0 then
    invalid_arg "Fluid_driver.attach: fluid engine already stepped";
  let couplings =
    List.map
      (fun (fluid_link, link) ->
        { fluid_link; link; last_bytes = Link.bytes_delivered link; ewma_bps = 0.0 })
      couplings
  in
  let t = { sim; engine; couplings } in
  (* The fluid stepper is a periodic driver like the timeline/watchdog
     drivers: it ticks every engine step while packet events remain, so
     a drained run is not kept alive by fluid time alone (catch_up
     covers the remainder). *)
  Sim.periodic_driver sim ~interval:(Fluid_engine.dt_s engine) ~comp:Obs.Profile.Fluid (fun () ->
      step_couplings t);
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
      Sim.add_timeline_probe sim ~labels "packet_cross_bps" (fun () -> c.ewma_bps))
    t.couplings;
  t

let catch_up t ~until_s =
  let dt = Fluid_engine.dt_s t.engine in
  while Fluid_engine.now_s t.engine < until_s -. (0.5 *. dt) do
    step_couplings t
  done;
  match Sim.watchdog t.sim with
  | Some w -> Obs.Watchdog.check_now w ~now:(Fluid_engine.now_s t.engine)
  | None -> ()
