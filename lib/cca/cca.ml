type ack_info = {
  now : float;
  rtt_sample : float option;
  srtt : float;
  min_rtt : float;
  newly_acked : int;
  inflight : int;
  delivery_rate : float;
  app_limited : bool;
}

type t = {
  name : string;
  mutable cwnd : float;
  mutable pacing_rate : float;
  mutable on_ack : ack_info -> unit;
  mutable on_loss : unit -> unit;
  mutable on_rto : now:float -> unit;
  mutable on_send : now:float -> bytes:int -> unit;
}

let initial_window ~mss = 10.0 *. float_of_int mss

let make ~name ?(cwnd = initial_window ~mss:Ccsim_util.Units.mss) ?(pacing_rate = infinity) () =
  {
    name;
    cwnd;
    pacing_rate;
    on_ack = (fun _ -> ());
    on_loss = (fun _ -> ());
    on_rto = (fun ~now:_ -> ());
    on_send = (fun ~now:_ ~bytes:_ -> ());
  }

(* The loss-based window rules (RFC 5681), written once for AIMD (and so
   Reno), CUBIC and Vegas. *)
let mss_bytes = float_of_int Ccsim_util.Units.mss

let slow_start t info = t.cwnd <- t.cwnd +. float_of_int info.newly_acked

let cut_on_loss t ssthresh ~beta =
  ssthresh := Float.max (t.cwnd *. beta) (2.0 *. mss_bytes);
  t.cwnd <- !ssthresh

let cut_on_rto t ssthresh ~beta =
  ssthresh := Float.max (t.cwnd *. beta) (2.0 *. mss_bytes);
  t.cwnd <- mss_bytes

let fixed_window ~cwnd_bytes =
  if cwnd_bytes <= 0 then invalid_arg "Cca.fixed_window: cwnd must be positive";
  make ~name:"fixed-window" ~cwnd:(float_of_int cwnd_bytes) ()

let fixed_rate ~rate_bps =
  if rate_bps <= 0.0 then invalid_arg "Cca.fixed_rate: rate must be positive";
  make ~name:"fixed-rate" ~cwnd:1e12 ~pacing_rate:rate_bps ()
