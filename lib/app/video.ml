module Sim = Ccsim_engine.Sim

(* Ascending: the first rung is the panic rate. *)
let ladder_bps =
  [| 1.0e6; 2.5e6; 5.0e6; 8.0e6; 16.0e6; 25.0e6 |]
[@@lint.allow R1 "ladder_bps is a constant bitrate ladder, never mutated after init"]

let chunk_duration = 2.0

(* Below this much buffer the client panics down to the lowest rung. *)
let low_buffer_s = 5.0

(* Pick the largest rung at most [safety] x estimated throughput. *)
let safety = 0.8

type state = Downloading of { target_bytes : int; started : float; rate : float } | Waiting

type t = {
  sim : Sim.t;
  sender : Ccsim_tcp.Sender.t;
  max_buffer_s : float;
  mutable state : state;
  mutable buffer_s : float;  (* seconds of video buffered *)
  mutable playing : bool;
  mutable last_tick : float;
  mutable tput_estimate : float;  (* EWMA of per-chunk throughput, bit/s *)
  mutable chunks : int;
  mutable rebuffer_s : float;
  mutable bitrate_sum : float;
}

type stats = { chunks_downloaded : int; mean_bitrate_bps : float; rebuffer_s : float }

let choose_rate t =
  if t.buffer_s < low_buffer_s then ladder_bps.(0)
  else begin
    let cap = safety *. t.tput_estimate in
    let best = ref ladder_bps.(0) in
    Array.iter (fun r -> if r <= cap && r > !best then best := r) ladder_bps;
    !best
  end

let request_chunk t =
  let now = Sim.now t.sim in
  let rate = choose_rate t in
  t.bitrate_sum <- t.bitrate_sum +. rate;
  let bytes = int_of_float (rate *. chunk_duration /. 8.0) in
  let target = Ccsim_tcp.Sender.bytes_acked t.sender + bytes in
  t.state <- Downloading { target_bytes = target; started = now; rate };
  Ccsim_tcp.Sender.write t.sender bytes

let tick t =
  let now = Sim.now t.sim in
  let dt = now -. t.last_tick in
  t.last_tick <- now;
  (* Playback drains the buffer; an empty buffer is a rebuffer stall. *)
  if t.playing then begin
    if t.buffer_s > 0.0 then t.buffer_s <- Float.max 0.0 (t.buffer_s -. dt)
    else t.rebuffer_s <- t.rebuffer_s +. dt
  end;
  match t.state with
  | Downloading { target_bytes; started; rate } ->
      if Ccsim_tcp.Sender.bytes_acked t.sender >= target_bytes then begin
        t.chunks <- t.chunks + 1;
        t.buffer_s <- t.buffer_s +. chunk_duration;
        let elapsed = Float.max 1e-3 (now -. started) in
        let chunk_tput = rate *. chunk_duration /. elapsed in
        t.tput_estimate <-
          (if t.tput_estimate <= 0.0 then chunk_tput
           else (0.3 *. chunk_tput) +. (0.7 *. t.tput_estimate));
        if (not t.playing) && t.buffer_s >= 2.0 *. chunk_duration then t.playing <- true;
        t.state <- Waiting
      end
  | Waiting -> if t.buffer_s +. chunk_duration <= t.max_buffer_s then request_chunk t

let start sim ~sender ?(max_buffer_s = 30.0) () =
  let t =
    {
      sim;
      sender;
      max_buffer_s;
      state = Waiting;
      buffer_s = 0.0;
      playing = false;
      last_tick = Sim.now sim;
      tput_estimate = 0.0;
      chunks = 0;
      rebuffer_s = 0.0;
      bitrate_sum = 0.0;
    }
  in
  request_chunk t;
  Sim.every sim ~interval:0.01 (fun () -> tick t);
  t

let stats t =
  {
    chunks_downloaded = t.chunks;
    mean_bitrate_bps = (if t.chunks = 0 then 0.0 else t.bitrate_sum /. float_of_int (max 1 t.chunks));
    rebuffer_s = t.rebuffer_s;
  }
