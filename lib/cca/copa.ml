let create ?(delta = 0.5) () =
  if delta <= 0.0 then invalid_arg "Copa.create: delta must be positive";
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = Cca.initial_window ~mss in
  let cca = Cca.make ~name:"copa" ~cwnd:initial () in
  let slow_start = ref true in
  let on_ack (info : Cca.ack_info) =
    let acked = float_of_int info.newly_acked in
    if info.srtt <= 0.0 || info.min_rtt <= 0.0 then ()
    else begin
      let dq = Float.max 1e-4 (info.srtt -. info.min_rtt) in
      (* Target rate in packets per second, per the Copa rule. *)
      let target_rate = 1.0 /. (delta *. dq) in
      let current_rate = cca.cwnd /. fmss /. info.srtt in
      if !slow_start then begin
        if current_rate < target_rate then cca.cwnd <- cca.cwnd +. acked
        else slow_start := false
      end;
      if not !slow_start then begin
        (* Move one MSS per RTT toward the target. *)
        let step = fmss *. acked /. (delta *. cca.cwnd) in
        if current_rate < target_rate then cca.cwnd <- cca.cwnd +. step
        else cca.cwnd <- Float.max (2.0 *. fmss) (cca.cwnd -. step)
      end
    end
  in
  let on_loss () =
    (* Copa reacts to loss only mildly (its window is delay-governed). *)
    cca.cwnd <- Float.max (2.0 *. fmss) (cca.cwnd /. 2.0);
    slow_start := false
  in
  let on_rto ~now:_ =
    cca.cwnd <- 2.0 *. fmss;
    slow_start := false
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
