(* A link serializes one packet at a time and delivers each one
   propagation delay after its serialization completes.

   The fault-free per-packet path allocates nothing. The
   serialization-complete event is one callback per link ([tx_done]),
   which reads the packet from the [on_wire] field and is scheduled
   from the serialization-time slot of [slots], so no float is boxed.
   Every delivery at the base delay is pushed into the link's delay
   line ([arrivals], [Ccsim_engine.Sim.line]): deliveries leave in time
   order, so only the oldest packet in propagation sits in the event
   heap, and each one
   still fires at the (time, seq) its own [Sim.schedule] would have
   had. Only the armed-fault path schedules a closure per packet: a
   reordered or delay-spiked delivery, and a duplicate's ghost. *)

module Obs = Ccsim_obs

(* Observability handles resolved once at creation from the ambient
   scope. [None] everywhere under the default scope, in which case the
   per-packet paths below reduce to a [match] on [None]. *)
type obs = {
  recorder : Obs.Recorder.t option;
  debug_rec : Obs.Recorder.t option;
      (* the recorder when it admits Debug: the per-packet delivery and
         wire-fault records are built only then *)
  tx_bytes : Obs.Metrics.counter option;
  tx_packets : Obs.Metrics.counter option;
  busy_seconds_g : Obs.Metrics.gauge option;
  rate_g : Obs.Metrics.gauge option;
  rate_changes : Obs.Metrics.counter option;
}

let no_obs =
  {
    recorder = None;
    debug_rec = None;
    tx_bytes = None;
    tx_packets = None;
    busy_seconds_g = None;
    rate_g = None;
    rate_changes = None;
  }

(* Watchdog conservation state: transmission starts and completions are
   counted at their two distinct event sites (dequeue vs delivery), so
   corrupting either side — or the public [bytes_delivered] aggregate —
   breaks an invariant instead of going unnoticed. Wire-level faults
   (non-congestive loss, corruption) are counted at their own site so
   the wire invariant stays exact under fault injection:
   started = delivered + lost + (at most one in flight). *)
type wd = {
  mutable tx_started_pkts : int;
  mutable tx_started_bytes : int;
  mutable wd_delivered_pkts : int;
  mutable wd_delivered_bytes : int;
  mutable wd_lost_pkts : int;
  mutable wd_lost_bytes : int;
}

type loss_model =
  | Uniform of { p : float }
  | Gilbert_elliott of {
      p_enter : float;  (* good -> bad transition probability per packet *)
      p_exit : float;  (* bad -> good transition probability per packet *)
      loss_good : float;
      loss_bad : float;
    }

(* Wire impairments (Ccsim_faults): allocated lazily by the first
   setter so the fault-free delivery path stays a [match] on [None]
   and is byte-identical to the pre-fault binary. All stochastic
   draws come from the injector-installed SplitMix64 stream, never a
   global PRNG (ccsim-lint R2). *)
type impairment = {
  mutable fault_rng : Ccsim_util.Rng.t option;
  mutable loss : loss_model option;
  mutable ge_bad : bool;  (* Gilbert–Elliott chain state *)
  mutable corrupt_p : float;
  mutable duplicate_p : float;
  mutable reorder : (float * float) option;  (* probability, extra delay (s) *)
  mutable spike_delay_s : float;  (* added to propagation while a delay spike is live *)
  mutable down : bool;  (* outage: serialization paused, queue builds *)
  mutable wire_lost_pkts : int;
  mutable wire_corrupted_pkts : int;
  mutable wire_duplicated_pkts : int;
  mutable wire_reordered_pkts : int;
}

let fresh_impairment () =
  {
    fault_rng = None;
    loss = None;
    ge_bad = false;
    corrupt_p = 0.0;
    duplicate_p = 0.0;
    reorder = None;
    spike_delay_s = 0.0;
    down = false;
    wire_lost_pkts = 0;
    wire_corrupted_pkts = 0;
    wire_duplicated_pkts = 0;
    wire_reordered_pkts = 0;
  }

let check_probability ~what p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Link.%s: probability %g outside [0, 1]" what p)

(* A fluid cross-traffic aggregate (hybrid mode) consumes part of the
   wire: serialization proceeds at the residual rate, floored at 1% of
   capacity so packet flows starve gracefully instead of stalling the
   event loop. *)
let min_residual_frac = 0.01

(* Slots of a link's [slots]: unboxed floats that a mutable float field
   in its mixed record would box on every write. [Sim.schedule_in]
   reads the delay from slot 0. *)
let s_tx = 0  (* serialization time of the packet on the wire *)
let s_busy = 1  (* cumulative busy seconds *)
let s_cross = 2  (* fluid cross-traffic rate, bit/s, set by the coupled fluid step *)

type t = {
  sim : Ccsim_engine.Sim.t;
  name : string;  (* hop label in lifecycle spans *)
  mutable rate_bps : float;
  delay_s : float;
  qdisc : Qdisc.t;
  sink : Packet.t -> unit;
  mutable busy : bool;
  mutable on_wire : Packet.t;  (* the packet serializing, [Packet.none] when none is *)
  tx_done : unit -> unit;  (* the serialization-complete event, allocated once *)
  arrive : Packet.t -> unit;  (* end of propagation: the sink, spans noted *)
  arrivals : Packet.t Ccsim_engine.Sim.line;  (* packets propagating at the base delay *)
  slots : float array;  (* the [s_] slots *)
  mutable bytes_delivered : int;
  obs : obs;
  profile : Obs.Profile.t option;
      (* ambient engine profile: simulated-packet hot-path counters
         (enqueued/dequeued/delivered/tail-dropped) feed the
         packets-per-wall-second metric; a single field store per
         packet when profiling, a [match] on [None] otherwise *)
  span : Obs.Span.t option;
  flow_busy : Ccsim_util.Int_table.t option;
      (* per-flow serialization seconds (bottleneck occupancy shares);
         allocated only when the ambient scope carries a timeline or
         metrics, one table probe per transmission otherwise nothing *)
  wd : wd option;
  mutable imp : impairment option;
}

let[@ccsim.hot] note_delivery t (pkt : Packet.t) =
  (match t.obs.tx_bytes with Some c -> Obs.Metrics.add c pkt.size_bytes | None -> ());
  (match t.obs.tx_packets with Some c -> Obs.Metrics.inc c | None -> ());
  (match t.obs.busy_seconds_g with Some g -> Obs.Metrics.set g t.slots.(s_busy) | None -> ());
  match t.obs.debug_rec with
  | Some r ->
      (Obs.Recorder.record r
         ~at:(Ccsim_engine.Sim.now t.sim)
         ~severity:Obs.Recorder.Debug ~kind:"packet" ~point:"link"
         ~fields:
           [
             ("flow", string_of_int pkt.flow);
             ("seq", string_of_int pkt.seq);
             ("bytes", string_of_int pkt.size_bytes);
             ("ack", if Packet.is_data pkt then "0" else "1");
           ]
         "delivered"
      [@ccsim.alloc_ok "cold branch: taken only when the journal's level admits Debug"])
  | None -> ()

let note_fault t ~what (pkt : Packet.t) =
  match t.obs.debug_rec with
  | Some r ->
      Obs.Recorder.record r
        ~at:(Ccsim_engine.Sim.now t.sim)
        ~severity:Obs.Recorder.Debug ~kind:"fault" ~point:"link"
        ~fields:
          [
            ("flow", string_of_int pkt.flow);
            ("seq", string_of_int pkt.seq);
            ("bytes", string_of_int pkt.size_bytes);
          ]
        what
  | None -> ()

(* Wire-side lifecycle-span sites (the queue-side sites live in
   Qdisc_obs): serialization-complete, delivery at the far end, and
   wire drops. Only packets carrying the [sampled] tag are touched. *)
let span_note_tx t (pkt : Packet.t) =
  match t.span with
  | Some s when pkt.Packet.sampled ->
      Obs.Span.note_tx s ~hop:t.name ~at:(Ccsim_engine.Sim.now t.sim) ~uid:pkt.Packet.uid
  | Some _ | None -> ()

let span_note_wire_drop t (pkt : Packet.t) =
  match t.span with
  | Some s when pkt.Packet.sampled ->
      Obs.Span.note_dropped s ~hop:t.name
        ~at:(Ccsim_engine.Sim.now t.sim)
        ~uid:pkt.Packet.uid ~flow:pkt.Packet.flow ~seq:pkt.Packet.seq
        ~kind:(if Packet.is_data pkt then "data" else "ack")
  | Some _ | None -> ()

(* Per-packet wire-loss draw: advances the Gilbert–Elliott chain (if
   configured) and returns whether this packet is lost on the wire.
   Only called with an impairment whose rng is installed. *)
let[@ccsim.hot] wire_lost imp rng =
  match imp.loss with
  | None -> false
  | Some (Uniform { p }) -> p > 0.0 && Ccsim_util.Rng.bernoulli rng ~p
  | Some (Gilbert_elliott { p_enter; p_exit; loss_good; loss_bad }) ->
      (if imp.ge_bad then begin
         if p_exit > 0.0 && Ccsim_util.Rng.bernoulli rng ~p:p_exit then imp.ge_bad <- false
       end
       else if p_enter > 0.0 && Ccsim_util.Rng.bernoulli rng ~p:p_enter then
         imp.ge_bad <- true);
      let p = if imp.ge_bad then loss_bad else loss_good in
      p > 0.0 && Ccsim_util.Rng.bernoulli rng ~p

let[@ccsim.hot] rec transmit_next t =
  let down = match t.imp with Some imp -> imp.down | None -> false in
  if down then t.busy <- false
  else
    let pkt = t.qdisc.Qdisc.dequeue () in
    if pkt == Packet.none then t.busy <- false
    else begin
      t.busy <- true;
      (match t.profile with
      | Some p -> Obs.Profile.note_pkt_dequeued p
      | None -> ());
      let effective_bps =
        Float.max (min_residual_frac *. t.rate_bps) (t.rate_bps -. t.slots.(s_cross))
      in
      (* Serialization time, computed straight into the slot so it is
         never boxed. *)
      if effective_bps <= 0.0 then invalid_arg "Link: rate must be positive";
      t.slots.(s_tx) <- 8.0 *. float_of_int pkt.Packet.size_bytes /. effective_bps;
      t.slots.(s_busy) <- t.slots.(s_busy) +. t.slots.(s_tx);
      (match t.flow_busy with
      | Some tbl -> Ccsim_util.Int_table.add_to tbl pkt.Packet.flow t.slots.(s_tx)
      | None -> ());
      (match t.wd with
      | Some wd ->
          wd.tx_started_pkts <- wd.tx_started_pkts + 1;
          wd.tx_started_bytes <- wd.tx_started_bytes + pkt.Packet.size_bytes
      | None -> ());
      t.on_wire <- pkt;
      ignore (Ccsim_engine.Sim.schedule_in t.sim t.slots t.tx_done)
    end

(* Serialization complete: the packet on the wire is delivered (or
   meets its wire fault) and the next one starts. *)
and[@ccsim.hot] complete_tx t =
  let pkt = t.on_wire in
  t.on_wire <- Packet.none;
  Ccsim_engine.Sim.set_component t.sim Obs.Profile.Link;
  span_note_tx t pkt;
  (match t.imp with
  | None -> deliver t pkt ~extra_delay:0.0 ~duplicate:false
  | Some imp -> deliver_impaired t imp pkt);
  transmit_next t

(* The fault-free delivery site, also the tail of the impaired path.
   Every delivery at the base delay joins the link's delay line, whose
   times ascend with the clock; a reordered or delay-spiked packet, and
   a duplicate's ghost, is its own event. *)
and[@ccsim.hot] deliver t (pkt : Packet.t) ~extra_delay ~duplicate =
  t.bytes_delivered <- t.bytes_delivered + pkt.size_bytes;
  (match t.profile with
  | Some p -> Obs.Profile.note_pkt_delivered p
  | None -> ());
  (match t.wd with
  | Some wd ->
      wd.wd_delivered_pkts <- wd.wd_delivered_pkts + 1;
      wd.wd_delivered_bytes <- wd.wd_delivered_bytes + pkt.size_bytes
  | None -> ());
  note_delivery t pkt;
  let propagation = t.delay_s +. extra_delay in
  if Float.equal extra_delay 0.0 then Ccsim_engine.Sim.push t.arrivals ~delay:t.delay_s pkt
  else
    (ignore (Ccsim_engine.Sim.schedule t.sim ~delay:propagation (fun () -> t.arrive pkt))
    [@ccsim.alloc_ok "stretched-propagation callback, armed-fault path only"]);
  if duplicate then
    (ignore
       (Ccsim_engine.Sim.schedule t.sim ~delay:propagation (fun () ->
            Ccsim_engine.Sim.set_component t.sim Obs.Profile.Link;
            t.sink pkt))
    [@ccsim.alloc_ok "duplicate-ghost callback, armed-fault path only"])

(* Serialization complete under an armed impairment: decide the
   packet's fate. Wire loss and corruption consume wire time but never
   reach the sink (a corrupted packet is checksum-discarded by the
   receiving end); duplication delivers a ghost copy; reordering and
   delay spikes stretch propagation. Draw order is fixed
   (loss, corruption, duplication, reordering) and each draw happens
   only while its fault is armed, so arming one fault never perturbs
   another's stream. *)
and[@ccsim.hot] deliver_impaired t imp (pkt : Packet.t) =
  (* Draws stay tuple-free: the fault path runs per packet. *)
  let lost = match imp.fault_rng with None -> false | Some rng -> wire_lost imp rng in
  let corrupted =
    match imp.fault_rng with
    | None -> false
    | Some rng ->
        (not lost) && imp.corrupt_p > 0.0 && Ccsim_util.Rng.bernoulli rng ~p:imp.corrupt_p
  in
  if lost || corrupted then begin
    (match t.wd with
    | Some wd ->
        wd.wd_lost_pkts <- wd.wd_lost_pkts + 1;
        wd.wd_lost_bytes <- wd.wd_lost_bytes + pkt.size_bytes
    | None -> ());
    span_note_wire_drop t pkt;
    if lost then begin
      imp.wire_lost_pkts <- imp.wire_lost_pkts + 1;
      note_fault t ~what:"wire-loss" pkt
    end
    else begin
      imp.wire_corrupted_pkts <- imp.wire_corrupted_pkts + 1;
      note_fault t ~what:"corrupt" pkt
    end
  end
  else begin
    let duplicate =
      match imp.fault_rng with
      | None -> false
      | Some rng -> imp.duplicate_p > 0.0 && Ccsim_util.Rng.bernoulli rng ~p:imp.duplicate_p
    in
    let reorder_delay =
      match imp.fault_rng with
      | None -> 0.0
      | Some rng -> (
          match imp.reorder with
          | Some (p, extra_s) when p > 0.0 && Ccsim_util.Rng.bernoulli rng ~p -> extra_s
          | Some _ | None -> 0.0)
    in
    if duplicate then begin
      imp.wire_duplicated_pkts <- imp.wire_duplicated_pkts + 1;
      note_fault t ~what:"duplicate" pkt
    end;
    if reorder_delay > 0.0 then begin
      imp.wire_reordered_pkts <- imp.wire_reordered_pkts + 1;
      note_fault t ~what:"reorder" pkt
    end;
    deliver t pkt ~extra_delay:(imp.spike_delay_s +. reorder_delay) ~duplicate
  end

(* The guards are written [not (x > 0.0)] and [not (x >= 0.0)], so
   NaN is refused here, where it enters, as [Sim]'s are. *)
let create sim ?(name = "link") ~rate_bps ~delay_s ?qdisc ~sink () =
  if not (rate_bps > 0.0) then invalid_arg "Link.create: rate must be positive";
  if not (delay_s >= 0.0) then invalid_arg "Link.create: negative delay";
  let qdisc = match qdisc with Some q -> q | None -> Fifo.create () in
  let scope = Obs.Scope.ambient () in
  let qdisc =
    match (scope.Obs.Scope.metrics, scope.Obs.Scope.recorder, scope.Obs.Scope.span) with
    | None, None, None -> qdisc
    | metrics, recorder, span ->
        Qdisc_obs.instrument ?metrics ?recorder ?span ~hop:name
          ~now:(fun () -> Ccsim_engine.Sim.now sim)
          qdisc
  in
  let flow_busy =
    match (scope.Obs.Scope.timeline, scope.Obs.Scope.metrics) with
    | None, None -> None
    | _ ->
        (* Flow attribution rides the same scope slots the per-flow
           timeline probes and metrics export read from. *)
        Qdisc.enable_flow_drop_accounting qdisc.Qdisc.stats;
        Some (Ccsim_util.Int_table.create ())
  in
  let obs =
    match scope.Obs.Scope.metrics with
    | None when Option.is_none scope.Obs.Scope.recorder -> no_obs
    | m ->
        let counter name = Option.map (fun m -> Obs.Metrics.counter m name) m in
        let gauge name = Option.map (fun m -> Obs.Metrics.gauge m name) m in
        let recorder = scope.Obs.Scope.recorder in
        {
          recorder;
          debug_rec =
            (match recorder with
            | Some r when Obs.Recorder.admits r Obs.Recorder.Debug -> Some r
            | Some _ | None -> None);
          tx_bytes = counter "link_tx_bytes_total";
          tx_packets = counter "link_tx_packets_total";
          busy_seconds_g = gauge "link_busy_seconds_total";
          rate_g = gauge "link_rate_bps";
          rate_changes = counter "link_rate_changes_total";
        }
  in
  (match obs.rate_g with Some g -> Obs.Metrics.set g rate_bps | None -> ());
  let wd =
    Option.map
      (fun _ ->
        {
          tx_started_pkts = 0;
          tx_started_bytes = 0;
          wd_delivered_pkts = 0;
          wd_delivered_bytes = 0;
          wd_lost_pkts = 0;
          wd_lost_bytes = 0;
        })
      scope.Obs.Scope.watchdog
  in
  let span = scope.Obs.Scope.span in
  (* The first arrival closes the packet's span; a duplicate's ghost,
     delivered without this call, never reopens it. *)
  let arrive (pkt : Packet.t) =
    Ccsim_engine.Sim.set_component sim Obs.Profile.Link;
    (match span with
    | Some s when pkt.Packet.sampled ->
        Obs.Span.note_delivered s ~hop:name ~at:(Ccsim_engine.Sim.now sim) ~uid:pkt.Packet.uid
    | Some _ | None -> ());
    sink pkt
  in
  let rec t =
    {
      sim;
      name;
      rate_bps;
      delay_s;
      qdisc;
      sink;
      busy = false;
      on_wire = Packet.none;
      tx_done = (fun () -> complete_tx t);
      arrive;
      arrivals = Ccsim_engine.Sim.line sim ~empty:Packet.none arrive;
      slots = Array.make 3 0.0;
      bytes_delivered = 0;
      obs;
      profile = scope.Obs.Scope.profile;
      span;
      flow_busy;
      wd;
      imp = None;
    }
  in
  (match (scope.Obs.Scope.watchdog, wd) with
  | Some w, Some wd ->
      (* Qdisc conservation: packets enqueued either left through
         dequeue, still sit in the backlog, or were dropped internally
         (DRR's longest-queue drop); tail drops are never counted as
         enqueued, so the residue is bounded by the drop count. *)
      Obs.Watchdog.register w
        ~component:("link/qdisc:" ^ qdisc.Qdisc.name)
        ~invariant:"packet_conservation"
        (fun () ->
          let st = t.qdisc.Qdisc.stats in
          let backlog = t.qdisc.Qdisc.backlog_packets () in
          let residue = st.enqueued - st.dequeued - backlog in
          if residue < 0 || residue > st.dropped then
            Some
              (Printf.sprintf
                 "enqueued=%d, dequeued=%d, backlog=%d, dropped=%d: residue %d outside [0, dropped]"
                 st.enqueued st.dequeued backlog st.dropped residue)
          else None);
      (* Wire conservation: the link serializes one packet at a time, so
         transmissions started and deliveries completed differ by at
         most the packet on the wire. *)
      Obs.Watchdog.register w ~component:"link" ~invariant:"packet_conservation" (fun () ->
          let in_flight = wd.tx_started_pkts - wd.wd_delivered_pkts - wd.wd_lost_pkts in
          if in_flight < 0 || in_flight > 1 then
            Some
              (Printf.sprintf
                 "tx_started=%d, delivered=%d, wire_lost=%d: %d packet(s) on a one-packet wire"
                 wd.tx_started_pkts wd.wd_delivered_pkts wd.wd_lost_pkts in_flight)
          else None);
      Obs.Watchdog.register w ~component:"link" ~invariant:"byte_conservation" (fun () ->
          if wd.wd_delivered_bytes <> t.bytes_delivered then
            Some
              (Printf.sprintf "delivered byte counters disagree: %d tracked vs %d reported"
                 wd.wd_delivered_bytes t.bytes_delivered)
          else if wd.tx_started_bytes < wd.wd_delivered_bytes + wd.wd_lost_bytes then
            Some
              (Printf.sprintf "delivered %d + wire-lost %d bytes but only %d entered the wire"
                 wd.wd_delivered_bytes wd.wd_lost_bytes wd.tx_started_bytes)
          else None)
  | _ -> ());
  t

let[@ccsim.hot] send t pkt =
  match t.profile with
  | None -> if t.qdisc.Qdisc.enqueue pkt && not t.busy then transmit_next t
  | Some p ->
      let accepted = t.qdisc.Qdisc.enqueue pkt in
      if accepted then Obs.Profile.note_pkt_enqueued p
      else Obs.Profile.note_pkt_dropped p;
      if accepted && not t.busy then transmit_next t

(* --- fault-injection hooks (Ccsim_faults) ------------------------------ *)

let impairment t =
  match t.imp with
  | Some imp -> imp
  | None ->
      let imp = fresh_impairment () in
      t.imp <- Some imp;
      imp

let require_rng t ~what =
  match (impairment t).fault_rng with
  | Some _ -> ()
  | None ->
      invalid_arg
        (Printf.sprintf "Link.%s: stochastic impairment needs Link.set_fault_rng first" what)

let set_fault_rng t rng = (impairment t).fault_rng <- Some rng

let set_outage t down =
  let imp = impairment t in
  let was_down = imp.down in
  imp.down <- down;
  (match t.obs.recorder with
  | Some r ->
      Obs.Recorder.record r
        ~at:(Ccsim_engine.Sim.now t.sim)
        ~severity:Obs.Recorder.Warn ~kind:"fault" ~point:"link"
        (if down then "outage" else "restored")
  | None -> ());
  (* Restoration kicks serialization if traffic queued up during the
     outage; an in-flight packet (scheduled before the outage) finishes
     on its own and re-enters transmit_next. *)
  if was_down && (not down) && not t.busy then transmit_next t

let is_down t = match t.imp with Some imp -> imp.down | None -> false

let set_loss_model t model =
  (match model with
  | None -> ()
  | Some (Uniform { p }) ->
      check_probability ~what:"set_loss_model" p;
      require_rng t ~what:"set_loss_model"
  | Some (Gilbert_elliott { p_enter; p_exit; loss_good; loss_bad }) ->
      check_probability ~what:"set_loss_model" p_enter;
      check_probability ~what:"set_loss_model" p_exit;
      check_probability ~what:"set_loss_model" loss_good;
      check_probability ~what:"set_loss_model" loss_bad;
      require_rng t ~what:"set_loss_model");
  let imp = impairment t in
  imp.loss <- model;
  (* Each arming starts the burst chain from the good state, so a
     (plan, seed) pair replays the same chain regardless of what ran
     before. *)
  imp.ge_bad <- false

let set_corrupt_p t p =
  check_probability ~what:"set_corrupt_p" p;
  if p > 0.0 then require_rng t ~what:"set_corrupt_p";
  (impairment t).corrupt_p <- p

let set_duplicate_p t p =
  check_probability ~what:"set_duplicate_p" p;
  if p > 0.0 then require_rng t ~what:"set_duplicate_p";
  (impairment t).duplicate_p <- p

let set_reorder t spec =
  (match spec with
  | None -> ()
  | Some (p, extra_s) ->
      check_probability ~what:"set_reorder" p;
      if extra_s < 0.0 then invalid_arg "Link.set_reorder: negative extra delay";
      if p > 0.0 then require_rng t ~what:"set_reorder");
  (impairment t).reorder <- spec

let set_spike_delay t extra_s =
  if extra_s < 0.0 then invalid_arg "Link.set_spike_delay: negative extra delay";
  (impairment t).spike_delay_s <- extra_s

let wire_lost_packets t = match t.imp with Some i -> i.wire_lost_pkts | None -> 0
let wire_corrupted_packets t = match t.imp with Some i -> i.wire_corrupted_pkts | None -> 0
let wire_duplicated_packets t = match t.imp with Some i -> i.wire_duplicated_pkts | None -> 0
let wire_reordered_packets t = match t.imp with Some i -> i.wire_reordered_pkts | None -> 0

let as_sink t pkt = send t pkt
let rate_bps t = t.rate_bps

let flow_busy_seconds t ~flow =
  match t.flow_busy with
  | None -> 0.0
  | Some tbl -> Ccsim_util.Int_table.find tbl flow ~default:0.0

let flow_drops t ~flow = Qdisc.flow_drops t.qdisc.Qdisc.stats ~flow

let set_rate t rate =
  if not (rate > 0.0) then invalid_arg "Link.set_rate: rate must be positive";
  t.rate_bps <- rate;
  (match t.obs.rate_changes with Some c -> Obs.Metrics.inc c | None -> ());
  match t.obs.rate_g with Some g -> Obs.Metrics.set g rate | None -> ()

let set_cross_rate_bps t rate =
  if not (rate.(0) >= 0.0) then invalid_arg "Link.set_cross_rate_bps: negative rate";
  t.slots.(s_cross) <- rate.(0)

let cross_rate_bps t = t.slots.(s_cross)
let qdisc t = t.qdisc
let utilization t ~now = if now <= 0.0 then 0.0 else t.slots.(s_busy) /. now
let bytes_delivered t = t.bytes_delivered
