module Sim = Ccsim_engine.Sim
module Packet = Ccsim_net.Packet

type t = {
  sim : Sim.t;
  flow : int;
  ack_path : Packet.t -> unit;
  buffer_bytes : int;
  consume_rate_bps : float;
  mutable rcv_nxt : int;
  (* Buffered out-of-order ranges [lo.(k), hi.(k)) for k < n:
     ascending, disjoint and non-adjacent, all above rcv_nxt. Both
     arrays are [||] while nothing is buffered. *)
  mutable lo : int array;
  mutable hi : int array;
  mutable n : int;
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
    lo = [||];
    hi = [||];
    n = 0;
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

(* Advance the application-drain model to the current time. Only a
   finite drain rate reads [consumed_updated], so only it reads the
   clock and stores the time. *)
let update_consumed t =
  if Float.is_finite t.consume_rate_bps then begin
    let now = Sim.now t.sim in
    let drained =
      int_of_float (t.consume_rate_bps *. (now -. t.consumed_updated) /. 8.0)
    in
    t.consumed <- min t.rcv_nxt (t.consumed + drained);
    t.consumed_updated <- now
  end
  else t.consumed <- t.rcv_nxt

let advertised_window t =
  update_consumed t;
  max 0 (t.buffer_bytes - (t.rcv_nxt - t.consumed))

(* First k in [a, b) with [v.(k) >= x], or [b]: [v] ascends there. *)
let rec search v x a b =
  if a >= b then a
  else
    let m = (a + b) lsr 1 in
    if v.(m) >= x then search v x a m else search v x (m + 1) b

(* Buffer [a, b), a >= rcv_nxt, absorbing every range it overlaps or
   touches. Ranges [i, j) are those absorbed: i is the first range not
   ending before [a], j the first starting after [b]. An arrival
   usually extends or follows the last range, so that is checked
   before any search. *)
let insert_range t a b =
  let last = t.n - 1 in
  let i =
    if t.n = 0 || t.hi.(last) < a then t.n
    else if t.n = 1 || t.hi.(last - 1) < a then last
    else search t.hi a 0 last
  in
  let j = if t.n = 0 || t.lo.(last) <= b then t.n else search t.lo (b + 1) i last in
  if i = j then begin
    (* Nothing absorbed: open a slot at i, doubling the arrays when full. *)
    if t.n = Array.length t.lo then begin
      let cap = if t.n = 0 then 8 else 2 * t.n in
      let grow v =
        let v' = Array.make cap 0 in
        Array.blit v 0 v' 0 t.n;
        v'
      in
      t.lo <- grow t.lo;
      t.hi <- grow t.hi
    end;
    Array.blit t.lo i t.lo (i + 1) (t.n - i);
    Array.blit t.hi i t.hi (i + 1) (t.n - i);
    t.lo.(i) <- a;
    t.hi.(i) <- b;
    t.n <- t.n + 1
  end
  else begin
    (* Ranges i..j-1 become one, in slot i. *)
    let merged_hi = Int.max b t.hi.(j - 1) in
    if t.lo.(i) > a then t.lo.(i) <- a;
    t.hi.(i) <- merged_hi;
    if j > i + 1 then begin
      Array.blit t.lo j t.lo (i + 1) (t.n - j);
      Array.blit t.hi j t.hi (i + 1) (t.n - j);
      t.n <- t.n - (j - i - 1)
    end
  end

(* rcv_nxt moves past the first range, which now starts at or below it. *)
let consume_first t =
  t.rcv_nxt <- Int.max t.rcv_nxt t.hi.(0);
  t.n <- t.n - 1;
  if t.n = 0 then begin
    (* Drained: a flow with nothing buffered holds no arrays. *)
    t.lo <- [||];
    t.hi <- [||]
  end
  else begin
    Array.blit t.lo 1 t.lo 0 t.n;
    Array.blit t.hi 1 t.hi 0 t.n
  end

(* Insert a received range and advance rcv_nxt over a now-contiguous
   first range. Every buffered range starts above rcv_nxt, and the new
   one at or above it, so at most the first range is consumed. An
   in-order arrival short of the first buffered range only moves
   rcv_nxt. *)
let integrate t ~seq ~len =
  let hi = seq + len in
  if hi <= t.rcv_nxt then ()
  else if seq <= t.rcv_nxt && (t.n = 0 || hi < t.lo.(0)) then t.rcv_nxt <- hi
  else begin
    insert_range t (Int.max seq t.rcv_nxt) hi;
    if t.lo.(0) <= t.rcv_nxt then consume_first t
  end

(* Buffered ranges [k, stop), ascending. *)
let rec ranges t k stop = if k >= stop then [] else (t.lo.(k), t.hi.(k)) :: ranges t (k + 1) stop

let send_ack t ~echo ~for_retx =
  let rwnd = advertised_window t in
  (* Advertise up to three buffered out-of-order ranges (SACK blocks). *)
  let sacks = ranges t 0 (Int.min t.n 3) in
  t.acks_sent <- t.acks_sent + 1;
  (match t.m_acks with Some c -> Ccsim_obs.Metrics.inc c | None -> ());
  t.ack_path
    (Packet.ack ~flow:t.flow ~ack:t.rcv_nxt ~echo ~for_retx ~rwnd ~sacks
       ~sent_at:(Sim.now t.sim))

let handle_data t (pkt : Packet.t) =
  if Packet.is_data pkt then begin
    integrate t ~seq:pkt.seq ~len:pkt.payload_bytes;
    send_ack t ~echo:pkt.sent_at ~for_retx:pkt.retx
  end

let bytes_received t = t.rcv_nxt
let out_of_order t = ranges t 0 t.n
let acks_sent t = t.acks_sent
