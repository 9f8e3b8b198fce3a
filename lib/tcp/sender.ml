module Sim = Ccsim_engine.Sim
module Packet = Ccsim_net.Packet
module Cca = Ccsim_cca.Cca
module Obs = Ccsim_obs

type limited = Not_started | App | Rwnd | Cwnd | Pacing | Busy

let limited_index = function
  | Not_started -> 0
  | App -> 1
  | Rwnd -> 2
  | Cwnd -> 3
  | Pacing -> 4
  | Busy -> 5

type t = {
  sim : Sim.t;
  flow : int;
  cca : Cca.t;
  path : Packet.t -> unit;
  mss : int;
  on_complete : t -> unit;
  rtt : Rtt_estimator.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable buffered : int;  (* application bytes not yet segmented *)
  mutable unlimited : bool;
  mutable closed : bool;
  mutable completed : bool;
  mutable stopped : bool;
  mutable rwnd : int;  (* latest advertised receive window *)
  board : Scoreboard.t;  (* in-flight segments and their loss state *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (* recovery ends when snd_una passes this *)
  mutable rto_event : Sim.event_id;  (* [Sim.no_event] until first armed *)
  mutable rto_fire : unit -> unit;
      (* the RTO callback, built once per sender: re-arming moves the one
         pending event instead of scheduling a fresh closure per ack *)
  pace_next : float array;
      (* one unboxed slot: a mutable float field in this mixed record
         would box on every per-segment store *)
  mutable pace_pending : bool;
  mutable pace_fire : unit -> unit;
      (* the pacing-timer callback, built once per sender like
         [rto_fire]: a pacing stall schedules it, not a fresh closure *)
  (* statistics *)
  started_at : float;
  mutable bytes_sent : int;
  mutable bytes_retrans : int;
  mutable segs_retrans : int;
  mutable rto_count : int;
  last_delivery_rate : float array;  (* one unboxed slot, stored per ack *)
  (* Delivery-rate window: a flat ring of (time, delivered) samples,
     one per cumulative ack. The previous representation pushed a
     boxed tuple through a Queue per ack and threaded the baseline as
     an option; the ring keeps the times unboxed and the baseline in
     dedicated slots. *)
  mutable ah_times : float array;
  mutable ah_delivered : int array;
  mutable ah_head : int;
  mutable ah_len : int;
  rate_t0 : float array;  (* one unboxed slot; valid when rate_valid *)
  mutable rate_d0 : int;
  mutable rate_valid : bool;
  (* limited-state accounting *)
  mutable limited_state : limited;
  mutable limited_since : float;
  limited_s : float array;
      (* seconds spent in each limited state, indexed by limited_index;
         float-array storage keeps the per-transition accumulation
         unboxed (slot 0, Not_started, is never charged) *)
  mutable recovery_since : float;  (* meaningful while in_recovery *)
  mutable recovery_s : float;
  (* observability, resolved from the ambient scope at creation *)
  m_retransmits : Obs.Metrics.counter option;
  m_rtos : Obs.Metrics.counter option;
  m_cwnd_limited : Obs.Metrics.counter option;
  obs_recorder : Obs.Recorder.t option;
}

let flow t = t.flow
let cca t = t.cca
let bytes_acked t = t.snd_una
let bytes_sent t = t.bytes_sent
let bytes_retrans t = t.bytes_retrans
let segs_retrans t = t.segs_retrans
let inflight t = t.snd_nxt - t.snd_una
let srtt t = Rtt_estimator.srtt t.rtt
let min_rtt t = Rtt_estimator.min_rtt t.rtt

(* --- limited-state accounting ------------------------------------------- *)

(* The clock is read only on a change of state: [Sim.now]'s result is
   boxed, and most calls change nothing. *)
let[@ccsim.hot] account_limited t state =
  if state <> t.limited_state then begin
    let now = Sim.now t.sim in
    (match (state, t.m_cwnd_limited) with
    | Cwnd, Some c -> Obs.Metrics.inc c
    | _ -> ());
    let prev = limited_index t.limited_state in
    if prev > 0 then
      t.limited_s.(prev) <- t.limited_s.(prev) +. (now -. t.limited_since);
    t.limited_state <- state;
    t.limited_since <- now
  end

let app_limited_now t = (not t.unlimited) && t.buffered < t.mss

let[@ccsim.hot] detect_losses t =
  Scoreboard.detect_losses t.board ~now:(Sim.now t.sim) ~srtt:(Rtt_estimator.srtt t.rtt)

let enter_recovery t =
  if not t.in_recovery then begin
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    let now = Sim.now t.sim in
    t.recovery_since <- now;
    (match t.obs_recorder with
    | Some r ->
        Obs.Recorder.record r ~at:now ~severity:Obs.Recorder.Info ~kind:"cca"
          ~point:t.cca.Cca.name
          ~fields:
            [
              ("flow", string_of_int t.flow);
              ("inflight", string_of_int (inflight t));
              ("lost_bytes", string_of_int (Scoreboard.lost_bytes t.board));
            ]
          "loss_response"
    | None -> ());
    t.cca.Cca.on_loss ()
  end

(* --- timers ---------------------------------------------------------------- *)

let cancel_rto t = Sim.cancel t.sim t.rto_event
let rto_armed t = Sim.is_pending t.sim t.rto_event

(* --- transmission ----------------------------------------------------------- *)

let[@ccsim.hot] pacing_delay t bytes =
  let rate = t.cca.Cca.pacing_rate in
  if Float.is_finite rate && rate > 0.0 then float_of_int bytes *. 8.0 /. rate else 0.0

(* The scoreboard has already recorded the transmission. *)
let[@ccsim.hot] transmit t ~now ~seq ~len ~is_retx =
  t.bytes_sent <- t.bytes_sent + len;
  if is_retx then begin
    t.bytes_retrans <- t.bytes_retrans + len;
    t.segs_retrans <- t.segs_retrans + 1;
    match t.m_retransmits with Some c -> Obs.Metrics.inc c | None -> ()
  end;
  t.pace_next.(0) <- Float.max now t.pace_next.(0) +. pacing_delay t len;
  t.cca.Cca.on_send ~now ~bytes:len;
  (t.path (Packet.data ~flow:t.flow ~seq ~payload_bytes:len ~retx:is_retx ~sent_at:now ())
  [@ccsim.alloc_ok "packet construction: one record per transmitted packet"])

(* Re-arming moves the pending RTO event to its new deadline under a
   fresh sequence number, the (time, seq) position a cancel then schedule
   would give it, so same-instant order and replays do not depend on how
   the timer is re-armed; and it leaves no closure, handle or cancelled
   entry per ack. *)
let[@ccsim.hot] rec arm_rto t =
  if inflight t > 0 && not t.stopped then
    t.rto_event <- Sim.reschedule t.sim t.rto_event ~delay:(Rtt_estimator.rto t.rtt) t.rto_fire
  else cancel_rto t

and on_rto t =
  if inflight t > 0 && not t.stopped then begin
    t.rto_count <- t.rto_count + 1;
    (match t.m_rtos with Some c -> Obs.Metrics.inc c | None -> ());
    (match t.obs_recorder with
    | Some r ->
        Obs.Recorder.record r ~at:(Sim.now t.sim) ~severity:Obs.Recorder.Warn ~kind:"tcp"
          ~point:"sender"
          ~fields:
            [
              ("flow", string_of_int t.flow);
              ("inflight", string_of_int (inflight t));
              ("rto_count", string_of_int t.rto_count);
            ]
          "rto"
    | None -> ());
    Rtt_estimator.backoff t.rtt;
    t.cca.Cca.on_rto ~now:(Sim.now t.sim);
    t.dupacks <- 0;
    if not t.in_recovery then t.recovery_since <- Sim.now t.sim;
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    (* Everything unsacked is presumed lost and will be retransmitted as
       the (collapsed) window allows. *)
    Scoreboard.mark_all_lost t.board;
    try_send t;
    arm_rto t
  end

and schedule_pace t ~now =
  if not t.pace_pending then begin
    t.pace_pending <- true;
    ignore (Sim.schedule t.sim ~delay:(t.pace_next.(0) -. now) t.pace_fire)
  end

(* Recursion rather than a [while]/[ref] loop: the per-ack send burst
   must not allocate a reference cell just to drive iteration. *)
and[@ccsim.hot] try_send t =
  if t.stopped then ()
  else begin
    let now = Sim.now t.sim in
    let cwnd_room = t.cca.Cca.cwnd -. float_of_int (Scoreboard.pipe_bytes t.board) in
    let pace_blocked = now < t.pace_next.(0) in
    let lost = Scoreboard.next_lost_segment t.board in
    if lost >= 0 then begin
      let len = Scoreboard.len t.board lost in
      if cwnd_room < float_of_int len then account_limited t Cwnd
      else if pace_blocked then begin
        account_limited t Pacing;
        schedule_pace t ~now
      end
      else begin
        Scoreboard.retransmit t.board lost ~now;
        transmit t ~now ~seq:(Scoreboard.seq t.board lost) ~len ~is_retx:true;
        if not (rto_armed t) then arm_rto t;
        account_limited t Busy;
        try_send t
      end
    end
    else begin
      let available = if t.unlimited then t.mss else min t.buffered t.mss in
      let rwnd_room = t.rwnd - inflight t in
      if available <= 0 then
        (* No data to send: application-limited even while earlier
           data is still in flight (Linux's tcp_info semantics). *)
        account_limited t App
      else if cwnd_room < float_of_int available then account_limited t Cwnd
      else if rwnd_room < available then account_limited t Rwnd
      else if pace_blocked then begin
        account_limited t Pacing;
        schedule_pace t ~now
      end
      else begin
        let seq = t.snd_nxt in
        Scoreboard.send t.board ~seq ~len:available ~now;
        t.snd_nxt <- t.snd_nxt + available;
        if not t.unlimited then t.buffered <- t.buffered - available;
        transmit t ~now ~seq ~len:available ~is_retx:false;
        if not (rto_armed t) then arm_rto t;
        account_limited t Busy;
        try_send t
      end
    end
  end

(* --- ack processing --------------------------------------------------------- *)

(* A completed sender frees its scoreboard rings and its delivery-rate
   ring: a closed sender takes no more data, so nothing is sent or
   acked again. *)
let check_complete t =
  if t.closed && (not t.completed) && t.buffered = 0 && inflight t = 0 then begin
    t.completed <- true;
    cancel_rto t;
    Scoreboard.release t.board;
    t.ah_times <- [||];
    t.ah_delivered <- [||];
    t.ah_head <- 0;
    t.ah_len <- 0;
    account_limited t App;
    t.on_complete t
  end

(* Append one (time, delivered) sample to the delivery-rate ring,
   doubling the backing arrays when full. *)
let[@ccsim.hot] ah_push t ~now =
  let cap = Array.length t.ah_times in
  if t.ah_len = cap then begin
    (let cap' = if cap = 0 then 64 else 2 * cap in
     let times = Array.make cap' 0.0 in
     let delivered = Array.make cap' 0 in
     for i = 0 to t.ah_len - 1 do
       let j = (t.ah_head + i) mod (if cap = 0 then 1 else cap) in
       times.(i) <- t.ah_times.(j);
       delivered.(i) <- t.ah_delivered.(j)
     done;
     t.ah_times <- times;
     t.ah_delivered <- delivered;
     t.ah_head <- 0)
    [@ccsim.alloc_ok "amortized ring doubling: O(log n) growth events over a run, not per ack"]
  end;
  let cap = Array.length t.ah_times in
  let slot = (t.ah_head + t.ah_len) mod cap in
  t.ah_times.(slot) <- now;
  t.ah_delivered.(slot) <- Scoreboard.delivered_bytes t.board;
  t.ah_len <- t.ah_len + 1

let[@ccsim.hot] handle_ack t (pkt : Packet.t) =
  if t.stopped then ()
  else begin
    Sim.set_component t.sim Obs.Profile.Tcp;
    let now = Sim.now t.sim in
    t.rwnd <- pkt.rwnd;
    Scoreboard.process_sacks t.board pkt.sacks;
    if pkt.ack > t.snd_una then begin
      let newly_acked = pkt.ack - t.snd_una in
      t.snd_una <- pkt.ack;
      t.dupacks <- 0;
      (* RTT from the ack's echoed transmit timestamp; Karn's rule skips
         acks triggered by retransmitted segments. *)
      let rtt_sample =
        (if pkt.echo > 0.0 && not pkt.retx then Some (now -. pkt.echo) else None)
        [@ccsim.alloc_ok "the CCA interface carries the RTT sample as an option"]
      in
      (match rtt_sample with
      | Some r when r > 0.0 -> Rtt_estimator.observe t.rtt r
      | Some _ | None -> ());
      Scoreboard.retire_acked t.board ~snd_una:t.snd_una;
      (* Delivery rate: acked bytes over a sliding window of roughly one
         smoothed RTT (floor 20 ms). Windowed averaging is robust to the
         bursty cumulative-ack jumps SACK recovery produces. The baseline
         is the most recent point that has aged out of the window. *)
      ah_push t ~now;
      let window = Float.max 0.02 (Rtt_estimator.srtt t.rtt) in
      while t.ah_len > 0 && t.ah_times.(t.ah_head) <= now -. window do
        t.rate_t0.(0) <- t.ah_times.(t.ah_head);
        t.rate_d0 <- t.ah_delivered.(t.ah_head);
        t.rate_valid <- true;
        t.ah_head <- (t.ah_head + 1) mod Array.length t.ah_times;
        t.ah_len <- t.ah_len - 1
      done;
      if t.rate_valid && now > t.rate_t0.(0) then
        t.last_delivery_rate.(0) <-
          float_of_int (Scoreboard.delivered_bytes t.board - t.rate_d0)
          *. 8.0
          /. (now -. t.rate_t0.(0));
      let app_limited_sample = app_limited_now t && inflight t < t.mss * 4 in
      detect_losses t;
      if Scoreboard.lost_bytes t.board > 0 then enter_recovery t;
      if t.in_recovery && t.snd_una >= t.recover then begin
        t.in_recovery <- false;
        ((t.recovery_s <- t.recovery_s +. (now -. t.recovery_since))
        [@ccsim.alloc_ok "one float box per recovery episode, not per ack"])
      end;
      let ack_info =
        ({
           Cca.now;
           rtt_sample;
           srtt = Rtt_estimator.srtt t.rtt;
           min_rtt = Rtt_estimator.min_rtt t.rtt;
           newly_acked;
           inflight = inflight t;
           delivery_rate = t.last_delivery_rate.(0);
           app_limited = app_limited_sample;
         }
        [@ccsim.alloc_ok "the CCA interface takes one ack_info record per cumulative ack"])
      in
      t.cca.Cca.on_ack ack_info;
      arm_rto t;
      try_send t;
      check_complete t
    end
    else begin
      (* Duplicate ack: the SACK scoreboard carries the real signal; the
         counter is a fallback for the head-of-line hole. *)
      if inflight t > 0 then begin
        t.dupacks <- t.dupacks + 1;
        detect_losses t;
        if t.dupacks >= 3 then Scoreboard.mark_head_lost t.board;
        if Scoreboard.lost_bytes t.board > 0 then enter_recovery t;
        try_send t
      end
    end
  end

(* --- application interface --------------------------------------------------- *)

let write t n =
  if n <= 0 then invalid_arg "Sender.write: bytes must be positive";
  if t.closed then invalid_arg "Sender.write: sender is closed";
  t.buffered <- t.buffered + n;
  try_send t

let set_unlimited t =
  if t.closed then invalid_arg "Sender.set_unlimited: sender is closed";
  t.unlimited <- true;
  try_send t

let close t =
  t.closed <- true;
  t.unlimited <- false;
  check_complete t

let stop t =
  t.stopped <- true;
  cancel_rto t

let info t =
  let now = Sim.now t.sim in
  (* Flush the in-progress limited interval without changing state. *)
  let extra = now -. t.limited_since in
  let limited st = t.limited_s.(limited_index st) in
  let app = limited App +. (match t.limited_state with App -> extra | _ -> 0.0) in
  let rwnd = limited Rwnd +. (match t.limited_state with Rwnd -> extra | _ -> 0.0) in
  let cwnd = limited Cwnd +. (match t.limited_state with Cwnd -> extra | _ -> 0.0) in
  let pacing =
    limited Pacing +. (match t.limited_state with Pacing -> extra | _ -> 0.0)
  in
  let recovery =
    t.recovery_s +. if t.in_recovery then now -. t.recovery_since else 0.0
  in
  {
    Tcp_info.at = now;
    bytes_acked = t.snd_una;
    min_rtt = Rtt_estimator.min_rtt t.rtt;
    app_limited_s = app;
    rwnd_limited_s = rwnd;
    cwnd_limited_s = cwnd;
    pacing_limited_s = pacing;
    recovery_s = recovery;
    elapsed_s = now -. t.started_at;
  }

let create sim ~flow ~cca ~path ?(on_complete = fun _ -> ()) () =
  let mss = Ccsim_util.Units.mss in
  let scope = Obs.Scope.ambient () in
  let counter name =
    Option.map
      (fun m -> Obs.Metrics.counter m ~labels:[ ("flow", string_of_int flow) ] name)
      scope.Obs.Scope.metrics
  in
  (match scope.Obs.Scope.watchdog with
  | Some w ->
      let component = Printf.sprintf "tcp/flow%d" flow in
      Obs.Watchdog.register w ~component ~invariant:"cwnd_positive" (fun () ->
          let cwnd = cca.Cca.cwnd in
          if (not (Float.is_finite cwnd)) || cwnd <= 0.0 then
            Some (Printf.sprintf "cwnd is %g bytes" cwnd)
          else None)
  | None -> ());
  let t =
    {
    sim;
    flow;
    cca;
    path;
    mss;
    on_complete;
    rtt = Rtt_estimator.create ();
    snd_una = 0;
    snd_nxt = 0;
    buffered = 0;
    unlimited = false;
    closed = false;
    completed = false;
    stopped = false;
    rwnd = max_int;
    board = Scoreboard.create ~mss;
    dupacks = 0;
    in_recovery = false;
    recover = 0;
    rto_event = Sim.no_event;
    rto_fire = ignore;
    pace_next = Array.make 1 0.0;
    pace_pending = false;
    pace_fire = ignore;
    started_at = Sim.now sim;
    bytes_sent = 0;
    bytes_retrans = 0;
    segs_retrans = 0;
    rto_count = 0;
    last_delivery_rate = Array.make 1 0.0;
    ah_times = [||];
    ah_delivered = [||];
    ah_head = 0;
    ah_len = 0;
    rate_t0 = Array.make 1 0.0;
    rate_d0 = 0;
    rate_valid = false;
    limited_state = Not_started;
    limited_since = Sim.now sim;
    limited_s = Array.make 6 0.0;
    recovery_since = 0.0;
    recovery_s = 0.0;
      m_retransmits = counter "tcp_retransmits_total";
      m_rtos = counter "tcp_rtos_total";
      m_cwnd_limited = counter "tcp_cwnd_limited_transitions_total";
      obs_recorder = scope.Obs.Scope.recorder;
    }
  in
  t.rto_fire <-
    (fun () ->
      Sim.set_component t.sim Obs.Profile.Tcp;
      on_rto t);
  t.pace_fire <-
    (fun () ->
      Sim.set_component t.sim Obs.Profile.Tcp;
      t.pace_pending <- false;
      try_send t);
  (match scope.Obs.Scope.watchdog with
  | Some w ->
      let component = Printf.sprintf "tcp/flow%d" flow in
      Obs.Watchdog.register w ~component ~invariant:"inflight_nonnegative" (fun () ->
          let inflight = inflight t and pipe = Scoreboard.pipe_bytes t.board in
          if inflight < 0 || pipe < 0 then
            Some (Printf.sprintf "inflight=%d bytes, pipe=%d bytes" inflight pipe)
          else None)
  | None -> ());
  t
