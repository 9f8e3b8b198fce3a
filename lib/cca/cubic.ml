(* Internally CUBIC operates on windows in units of MSS, as in the RFC. *)
let create () =
  let c = 0.4 and beta = 0.7 in
  let mss = Ccsim_util.Units.mss in
  let fmss = float_of_int mss in
  let initial = Cca.initial_window ~mss in
  let cca = Cca.make ~name:"cubic" ~cwnd:initial () in
  let ssthresh = ref infinity in
  let w_max = ref 0.0 in
  let k = ref 0.0 in
  let epoch_start = ref None in
  let w_est = ref 0.0 in
  let enter_epoch now =
    epoch_start := Some now;
    let w_mss = cca.cwnd /. fmss in
    if w_mss < !w_max then k := Float.cbrt (!w_max *. (1.0 -. beta) /. c)
    else begin
      (* We are already above the last W_max: restart the cubic from here. *)
      w_max := w_mss;
      k := 0.0
    end;
    w_est := w_mss
  in
  let on_ack (info : Cca.ack_info) =
    if cca.cwnd < !ssthresh then Cca.slow_start cca info
    else begin
      let acked = float_of_int info.newly_acked in
      (match !epoch_start with None -> enter_epoch info.now | Some _ -> ());
      match !epoch_start with
      | None -> assert false
      | Some t0 ->
          let rtt = if info.srtt > 0.0 then info.srtt else 0.1 in
          let t = info.now -. t0 +. rtt in
          let target = (c *. ((t -. !k) ** 3.0)) +. !w_max in
          (* TCP-friendly window estimate (RFC 8312 §4.2). *)
          let ack_frac = acked /. fmss in
          w_est :=
            !w_est +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta) *. ack_frac /. (cca.cwnd /. fmss));
          let w_mss = cca.cwnd /. fmss in
          let next =
            if target > w_mss then w_mss +. ((target -. w_mss) /. w_mss *. ack_frac)
            else w_mss +. (0.01 *. ack_frac /. w_mss)
          in
          let next = Float.max next !w_est in
          cca.cwnd <- next *. fmss
    end
  in
  let on_loss () =
    let w_mss = cca.cwnd /. fmss in
    (* Fast convergence (RFC 8312 §4.6). *)
    w_max := if w_mss < !w_max then w_mss *. (1.0 +. beta) /. 2.0 else w_mss;
    Cca.cut_on_loss cca ssthresh ~beta;
    epoch_start := None
  in
  let on_rto ~now:_ =
    let w_mss = cca.cwnd /. fmss in
    w_max := w_mss;
    Cca.cut_on_rto cca ssthresh ~beta;
    epoch_start := None
  in
  cca.Cca.on_ack <- on_ack;
  cca.Cca.on_loss <- on_loss;
  cca.Cca.on_rto <- on_rto;
  cca
