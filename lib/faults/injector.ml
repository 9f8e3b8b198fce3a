(* Compiles a fault plan onto one simulation: every plan event becomes
   Sim events that drive the Link/Qdisc fault hooks, with the full
   armed/fired/cleared lifecycle journaled through the ambient flight
   recorder and mirrored as timeline span series (1 while live, 0
   otherwise — rendered as fault spans by the Perfetto exporter). *)

module Sim = Ccsim_engine.Sim
module Link = Ccsim_net.Link
module Qdisc = Ccsim_net.Qdisc
module Rng = Ccsim_util.Rng

type t = {
  sim : Sim.t;
  link : Link.t;
  plan : Plan.t;
  base_rate_bps : float;
  flap_rng : Rng.t;
  recorder : Ccsim_obs.Recorder.t option;
  fired_counter : Ccsim_obs.Metrics.counter option;
  mutable fired : int;
  mutable cleared : int;
  mutable qdisc_flushed : int;
}

type summary = {
  armed : int;
  fired : int;
  cleared : int;
  wire_lost : int;
  wire_corrupted : int;
  wire_reordered : int;
  qdisc_flushed : int;
}

let journal (t : t) ~severity ~detail ~idx event extra =
  match t.recorder with
  | None -> ()
  | Some r ->
      Ccsim_obs.Recorder.record r ~at:(Sim.now t.sim) ~severity ~kind:"fault" ~point:"injector"
        ~fields:
          (("idx", string_of_int idx)
          :: ("fault", Plan.kind_of event)
          :: ("event", Plan.event_to_string event)
          :: extra)
        detail

let span t ~idx event =
  Sim.timeline_series t.sim
    ~labels:[ ("fault", Plan.kind_of event); ("idx", string_of_int idx) ]
    "fault_span"

let record_span series ~t ~value =
  match series with
  | None -> ()
  | Some s -> Ccsim_obs.Timeline.record s ~time:(Sim.now t.sim) ~value

let fire (t : t) ~idx event extra =
  t.fired <- t.fired + 1;
  (match t.fired_counter with None -> () | Some c -> Ccsim_obs.Metrics.inc c);
  journal t ~severity:Ccsim_obs.Recorder.Warn ~detail:"fired" ~idx event extra

let clear (t : t) ~idx event extra =
  t.cleared <- t.cleared + 1;
  journal t ~severity:Ccsim_obs.Recorder.Info ~detail:"cleared" ~idx event extra

(* Every plan event schedules a [fire] action at its start and, for
   bounded events, a [clear] action restoring the un-faulted state. The
   restore is scheduled up front (not from inside the fire callback) so
   an event landing exactly at the run horizon still restores within
   the same run when its window fits. *)
let arm_event (t : t) ~idx event =
  let sp = span t ~idx event in
  let at time f =
    ignore
      (Sim.schedule_at t.sim ~time (fun () ->
           Sim.set_component t.sim Ccsim_obs.Profile.Faults;
           f ()))
  in
  let fire_clear ~at_s ~dur_s ~(on_fire : unit -> unit) ~(on_clear : unit -> unit) extra =
    at at_s (fun () ->
        on_fire ();
        fire t ~idx event (extra ());
        record_span sp ~t ~value:1.0);
    at (at_s +. dur_s) (fun () ->
        on_clear ();
        clear t ~idx event [];
        record_span sp ~t ~value:0.0)
  in
  let nothing () = [] in
  match event with
  | Plan.Outage { at_s; dur_s } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () -> Link.set_outage t.link true)
        ~on_clear:(fun () -> Link.set_outage t.link false)
        nothing
  | Plan.Capacity { at_s; factor; dur_s } -> (
      let faulted_bps = t.base_rate_bps *. factor in
      let set_fault () = Link.set_rate t.link faulted_bps in
      let restore () = Link.set_rate t.link t.base_rate_bps in
      let extra () = [ ("rate_bps", Printf.sprintf "%g" faulted_bps) ] in
      match dur_s with
      | Some dur_s -> fire_clear ~at_s ~dur_s ~on_fire:set_fault ~on_clear:restore extra
      | None ->
          at at_s (fun () ->
              set_fault ();
              fire t ~idx event (extra ());
              record_span sp ~t ~value:1.0))
  | Plan.Ramp { at_s; dur_s; factor } ->
      let steps = 20 in
      at at_s (fun () ->
          fire t ~idx event [ ("target_bps", Printf.sprintf "%g" (t.base_rate_bps *. factor)) ];
          record_span sp ~t ~value:1.0);
      for k = 1 to steps do
        let frac = float_of_int k /. float_of_int steps in
        at
          (at_s +. (dur_s *. frac))
          (fun () ->
            Link.set_rate t.link (t.base_rate_bps *. (1.0 +. ((factor -. 1.0) *. frac)));
            if k = steps then begin
              clear t ~idx event [ ("rate_bps", Printf.sprintf "%g" (Link.rate_bps t.link)) ];
              record_span sp ~t ~value:0.0
            end)
      done
  | Plan.Loss { at_s; dur_s; p } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () -> Link.set_loss_model t.link (Some (Link.Uniform { p })))
        ~on_clear:(fun () -> Link.set_loss_model t.link None)
        nothing
  | Plan.Burst_loss { at_s; dur_s; p_enter; p_exit; loss_good; loss_bad } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () ->
          Link.set_loss_model t.link
            (Some (Link.Gilbert_elliott { p_enter; p_exit; loss_good; loss_bad })))
        ~on_clear:(fun () -> Link.set_loss_model t.link None)
        nothing
  | Plan.Corrupt { at_s; dur_s; p } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () -> Link.set_corrupt_p t.link p)
        ~on_clear:(fun () -> Link.set_corrupt_p t.link 0.0)
        nothing
  | Plan.Duplicate { at_s; dur_s; p } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () -> Link.set_duplicate_p t.link p)
        ~on_clear:(fun () -> Link.set_duplicate_p t.link 0.0)
        nothing
  | Plan.Reorder { at_s; dur_s; p; extra_s } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () -> Link.set_reorder t.link (Some (p, extra_s)))
        ~on_clear:(fun () -> Link.set_reorder t.link None)
        nothing
  | Plan.Delay_spike { at_s; dur_s; extra_s } ->
      fire_clear ~at_s ~dur_s
        ~on_fire:(fun () -> Link.set_spike_delay t.link extra_s)
        ~on_clear:(fun () -> Link.set_spike_delay t.link 0.0)
        nothing
  | Plan.Qdisc_reset { at_s } ->
      at at_s (fun () ->
          let flushed = Qdisc.flush (Link.qdisc t.link) in
          t.qdisc_flushed <- t.qdisc_flushed + flushed;
          fire t ~idx event [ ("flushed_pkts", string_of_int flushed) ];
          record_span sp ~t ~value:1.0;
          record_span sp ~t ~value:0.0)
  | Plan.Flap { from_s; until_s; mean_up_s; mean_down_s } ->
      (* Exponential holding times drawn lazily as the cycle unfolds;
         the draws come from the injector's own split stream, so they
         never perturb per-packet impairment draws. *)
      let rec schedule_down ~after_s =
        let t_down = after_s +. Rng.exponential t.flap_rng ~mean:mean_up_s in
        if t_down < until_s then
          at t_down (fun () ->
              Link.set_outage t.link true;
              fire t ~idx event [];
              record_span sp ~t ~value:1.0;
              let t_up =
                Float.min until_s (Sim.now t.sim +. Rng.exponential t.flap_rng ~mean:mean_down_s)
              in
              at t_up (fun () ->
                  Link.set_outage t.link false;
                  clear t ~idx event [];
                  record_span sp ~t ~value:0.0;
                  schedule_down ~after_s:(Sim.now t.sim)))
      in
      schedule_down ~after_s:from_s

let attach sim ~link ~plan ~seed () =
  let rng = Rng.create seed in
  let link_rng = Rng.split rng in
  let flap_rng = Rng.split rng in
  Link.set_fault_rng link link_rng;
  let scope = Ccsim_obs.Scope.ambient () in
  let fired_counter =
    match scope.metrics with
    | None -> None
    | Some m -> Some (Ccsim_obs.Metrics.counter m "faults_fired_total")
  in
  let t =
    {
      sim;
      link;
      plan;
      base_rate_bps = Link.rate_bps link;
      flap_rng;
      recorder = scope.recorder;
      fired_counter;
      fired = 0;
      cleared = 0;
      qdisc_flushed = 0;
    }
  in
  List.iteri
    (fun idx event ->
      journal t ~severity:Ccsim_obs.Recorder.Info ~detail:"armed" ~idx event [];
      arm_event t ~idx event)
    plan;
  t

let summary t =
  {
    armed = List.length t.plan;
    fired = t.fired;
    cleared = t.cleared;
    wire_lost = Link.wire_lost_packets t.link;
    wire_corrupted = Link.wire_corrupted_packets t.link;
    wire_reordered = Link.wire_reordered_packets t.link;
    qdisc_flushed = t.qdisc_flushed;
  }
