(* Weights for the last eight loss intervals (RFC 5348 §5.4). *)
let interval_weights = [| 1.0; 1.0; 1.0; 1.0; 0.8; 0.6; 0.4; 0.2 |]

let create () =
  let fmss = float_of_int Ccsim_util.Units.mss in
  let cca = Cca.make ~name:"tfrc" ~cwnd:1e12 ~pacing_rate:(Ccsim_util.Units.mbps 1.0) () in
  (* Completed loss intervals (packets between consecutive loss events),
     most recent first; [current] counts packets since the last event. *)
  let intervals : float list ref = ref [] in
  let current = ref 0.0 in
  let had_loss = ref false in
  let last_doubling = ref 0.0 in
  let loss_event_rate () =
    let considered = !current :: !intervals in
    let n = min (Array.length interval_weights) (List.length considered) in
    if n = 0 then 0.0
    else begin
      let num = ref 0.0 and den = ref 0.0 in
      List.iteri
        (fun i interval ->
          if i < n then begin
            num := !num +. (interval_weights.(i) *. interval);
            den := !den +. interval_weights.(i)
          end)
        considered;
      let avg = !num /. !den in
      if avg <= 0.0 then 1.0 else 1.0 /. avg
    end
  in
  let throughput_equation ~rtt ~p =
    (* X = s / (R*sqrt(2bp/3) + t_RTO * (3*sqrt(3bp/8)) * p * (1 + 32p^2)),
       b = 1, t_RTO = 4R; result in bytes/s, converted to bit/s. *)
    let b = 1.0 in
    let t_rto = 4.0 *. rtt in
    let denom =
      (rtt *. sqrt (2.0 *. b *. p /. 3.0))
      +. (t_rto *. 3.0 *. sqrt (3.0 *. b *. p /. 8.0) *. p *. (1.0 +. (32.0 *. p *. p)))
    in
    if denom <= 0.0 then infinity else fmss /. denom *. 8.0
  in
  let on_ack (info : Cca.ack_info) =
    current := !current +. (float_of_int info.newly_acked /. fmss);
    let rtt = if info.srtt > 0.0 then info.srtt else 0.1 in
    if not !had_loss then begin
      (* Initial slow-start phase: double the rate each RTT. *)
      if info.now -. !last_doubling >= rtt then begin
        last_doubling := info.now;
        cca.pacing_rate <- cca.pacing_rate *. 2.0
      end
    end
    else begin
      let p = loss_event_rate () in
      if p > 0.0 then begin
        let x = throughput_equation ~rtt ~p in
        (* Never pace below one packet per RTO-ish interval. *)
        cca.pacing_rate <- Float.max (fmss *. 8.0 /. (4.0 *. rtt)) x
      end
    end
  in
  let record_loss () =
    had_loss := true;
    intervals := !current :: !intervals;
    if List.length !intervals > Array.length interval_weights then
      intervals :=
        List.filteri (fun i _ -> i < Array.length interval_weights) !intervals;
    current := 0.0
  in
  let on_loss (_ : Cca.loss_info) = record_loss () in
  let on_rto ~now:_ =
    record_loss ();
    cca.pacing_rate <- Float.max (fmss *. 8.0) (cca.pacing_rate /. 2.0)
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
