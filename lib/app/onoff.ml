module Sim = Ccsim_engine.Sim

type t = {
  mutable bytes_offered : int;
  mutable on : bool;
  mutable on_time : float;
  mutable last_transition : float;
  started_at : float;
}

let start sim ~sender ~rng ~rate_bps ?(mean_on = 0.5) ?(mean_off = 0.5) () =
  if rate_bps <= 0.0 then invalid_arg "Onoff.start: rate must be positive";
  if mean_on <= 0.0 || mean_off <= 0.0 then invalid_arg "Onoff.start: means must be positive";
  let tick = 0.01 in
  let now = Sim.now sim in
  let t =
    { bytes_offered = 0; on = true; on_time = 0.0; last_transition = now; started_at = now }
  in
  let rec transition () =
    let now = Sim.now sim in
    if t.on then t.on_time <- t.on_time +. (now -. t.last_transition);
    t.on <- not t.on;
    t.last_transition <- now;
    let mean = if t.on then mean_on else mean_off in
    ignore (Sim.schedule sim ~delay:(Ccsim_util.Rng.exponential rng ~mean) transition)
  in
  ignore
    (Sim.schedule sim ~delay:(Ccsim_util.Rng.exponential rng ~mean:mean_on) transition);
  let carry = ref 0.0 in
  Sim.every sim ~interval:tick (fun () ->
      if t.on then begin
        carry := !carry +. (rate_bps *. tick /. 8.0);
        let n = int_of_float !carry in
        if n > 0 then begin
          carry := !carry -. float_of_int n;
          t.bytes_offered <- t.bytes_offered + n;
          Ccsim_tcp.Sender.write sender n
        end
      end);
  t

let bytes_offered t = t.bytes_offered

let on_fraction t =
  let elapsed = t.last_transition -. t.started_at in
  if elapsed <= 0.0 then if t.on then 1.0 else 0.0
  else begin
    let on_time = t.on_time in
    on_time /. elapsed
  end
