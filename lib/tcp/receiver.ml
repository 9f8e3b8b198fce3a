module Sim = Ccsim_engine.Sim
module Packet = Ccsim_net.Packet

type t = {
  sim : Sim.t;
  flow : int;
  ack_path : Packet.t -> unit;
  buffer_bytes : int;
  consume_rate_bps : float;
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;  (* disjoint buffered ranges, sorted *)
  mutable consumed : int;  (* bytes the app has drained *)
  mutable consumed_updated : float;
  mutable acks_sent : int;
  m_acks : Ccsim_obs.Metrics.counter option;
}

let create sim ~flow ~ack_path ?(buffer_bytes = 4 * 1024 * 1024) ?(consume_rate_bps = infinity)
    () =
  if buffer_bytes <= 0 then invalid_arg "Receiver.create: buffer must be positive";
  {
    sim;
    flow;
    ack_path;
    buffer_bytes;
    consume_rate_bps;
    rcv_nxt = 0;
    ooo = [];
    consumed = 0;
    consumed_updated = Sim.now sim;
    acks_sent = 0;
    m_acks =
      Option.map
        (fun m ->
          Ccsim_obs.Metrics.counter m
            ~labels:[ ("flow", string_of_int flow) ]
            "tcp_acks_sent_total")
        (Ccsim_obs.Scope.ambient ()).Ccsim_obs.Scope.metrics;
  }

(* Advance the application-drain model to the current time. *)
let update_consumed t =
  let now = Sim.now t.sim in
  if Float.is_finite t.consume_rate_bps then begin
    let drained =
      int_of_float (t.consume_rate_bps *. (now -. t.consumed_updated) /. 8.0)
    in
    t.consumed <- min t.rcv_nxt (t.consumed + drained)
  end
  else t.consumed <- t.rcv_nxt;
  t.consumed_updated <- now

let advertised_window t =
  update_consumed t;
  max 0 (t.buffer_bytes - (t.rcv_nxt - t.consumed))

(* Insert [lo, hi) into sorted, disjoint, non-adjacent ranges in one
   pass, absorbing every range it overlaps or touches. *)
let rec insert_range (lo : int) (hi : int) = function
  | [] -> [ (lo, hi) ]
  | ((a, b) as r) :: rest ->
      if b < lo then r :: insert_range lo hi rest
      else if hi < a then (lo, hi) :: r :: rest
      else insert_range (min a lo) (max b hi) rest

(* Insert a received range and advance rcv_nxt over any now-contiguous
   buffered ranges. *)
let integrate t ~seq ~len =
  let lo = seq and hi = seq + len in
  if hi > t.rcv_nxt then begin
    (* Pop leading ranges that extend the contiguous prefix. *)
    let rec advance ranges =
      match ranges with
      | (lo, hi) :: rest when lo <= t.rcv_nxt ->
          if hi > t.rcv_nxt then t.rcv_nxt <- hi;
          advance rest
      | rest -> rest
    in
    t.ooo <- advance (insert_range (max lo t.rcv_nxt) hi t.ooo)
  end

let send_ack t ~echo ~for_retx =
  let rwnd = advertised_window t in
  (* Advertise up to three buffered out-of-order ranges (SACK blocks). *)
  let sacks = List.filteri (fun i _ -> i < 3) t.ooo in
  t.acks_sent <- t.acks_sent + 1;
  (match t.m_acks with Some c -> Ccsim_obs.Metrics.inc c | None -> ());
  t.ack_path
    (Packet.ack ~flow:t.flow ~ack:t.rcv_nxt ~echo ~for_retx ~rwnd ~sacks
       ~sent_at:(Sim.now t.sim) ())

let handle_data t (pkt : Packet.t) =
  if Packet.is_data pkt then begin
    integrate t ~seq:pkt.seq ~len:pkt.payload_bytes;
    send_ack t ~echo:pkt.sent_at ~for_retx:pkt.retx
  end

let bytes_received t = t.rcv_nxt
let out_of_order t = t.ooo
let acks_sent t = t.acks_sent
