(* Unit tests for the congestion-control algorithms, driven through the
   Cca interface with synthetic ack/loss sequences (no network). *)

module Cca = Ccsim_cca.Cca
module U = Ccsim_util

let mss = U.Units.mss
let fmss = float_of_int mss

let ack ?(now = 1.0) ?(rtt = Some 0.1) ?(srtt = 0.1) ?(min_rtt = 0.1) ?(newly = mss)
    ?(inflight = 20 * mss) ?(rate = 10e6) ?(app_limited = false) () =
  {
    Cca.now;
    rtt_sample = rtt;
    srtt;
    min_rtt;
    newly_acked = newly;
    inflight;
    delivery_rate = rate;
    app_limited;
  }

(* Feed one RTT worth of acks for the current window. *)
let ack_window ?now ?srtt ?min_rtt ?rate cca =
  let packets = max 1 (int_of_float (cca.Cca.cwnd /. fmss)) in
  for _ = 1 to packets do
    cca.Cca.on_ack (ack ?now ?srtt ?min_rtt ?rate ())
  done

(* --- generic behaviours expected of every window-based CCA ------------------- *)

let window_ccas () =
  [
    ("reno", Ccsim_cca.Reno.create ());
    ("cubic", Ccsim_cca.Cubic.create ());
    ("vegas", Ccsim_cca.Vegas.create ());
    ("aimd", Ccsim_cca.Aimd.create ());
  ]

let test_initial_window () =
  List.iter
    (fun (name, cca) ->
      Alcotest.(check (float 1.0)) (name ^ " starts at IW10") (10.0 *. fmss) cca.Cca.cwnd)
    (window_ccas ())

let test_slow_start_grows_fast () =
  List.iter
    (fun (name, cca) ->
      let before = cca.Cca.cwnd in
      ack_window cca;
      Alcotest.(check bool)
        (name ^ " roughly doubles in slow start")
        true
        (cca.Cca.cwnd > 1.8 *. before))
    (window_ccas ())

let test_loss_shrinks_window () =
  List.iter
    (fun (name, cca) ->
      for _ = 1 to 5 do
        ack_window cca
      done;
      let before = cca.Cca.cwnd in
      cca.Cca.on_loss ();
      Alcotest.(check bool) (name ^ " backs off on loss") true (cca.Cca.cwnd < before))
    (window_ccas ())

let test_rto_collapses_window () =
  List.iter
    (fun (name, cca) ->
      for _ = 1 to 5 do
        ack_window cca
      done;
      cca.Cca.on_rto ~now:2.0;
      Alcotest.(check bool)
        (name ^ " collapses on RTO")
        true
        (cca.Cca.cwnd <= 2.0 *. fmss +. 1e-6))
    (window_ccas ())

let test_window_floor () =
  List.iter
    (fun (name, cca) ->
      for _ = 1 to 20 do
        cca.Cca.on_loss ()
      done;
      Alcotest.(check bool)
        (name ^ " never below 2 MSS")
        true
        (cca.Cca.cwnd >= 2.0 *. fmss -. 1e-6))
    (window_ccas ())

(* --- Reno specifics ------------------------------------------------------------ *)

let test_reno_halves_on_loss () =
  let cca = Ccsim_cca.Reno.create () in
  for _ = 1 to 6 do
    ack_window cca
  done;
  let before = cca.Cca.cwnd in
  cca.Cca.on_loss ();
  Alcotest.(check (float 1.0)) "multiplicative decrease 0.5" (before /. 2.0) cca.Cca.cwnd

let test_reno_linear_in_avoidance () =
  let cca = Ccsim_cca.Reno.create () in
  (* Force out of slow start. *)
  for _ = 1 to 6 do
    ack_window cca
  done;
  cca.Cca.on_loss ();
  let before = cca.Cca.cwnd in
  ack_window cca;
  (* One RTT of acks adds ~1 MSS in congestion avoidance. *)
  Alcotest.(check (float (0.3 *. fmss))) "additive increase 1 MSS/RTT" (before +. fmss)
    cca.Cca.cwnd

(* --- AIMD parameterization ------------------------------------------------------- *)

let test_aimd_beta () =
  let cca = Ccsim_cca.Aimd.create ~a:1.0 ~b:0.7 () in
  for _ = 1 to 6 do
    ack_window cca
  done;
  let before = cca.Cca.cwnd in
  cca.Cca.on_loss ();
  Alcotest.(check (float 1.0)) "beta 0.7" (0.7 *. before) cca.Cca.cwnd

let test_aimd_aggressive_alpha_grows_faster () =
  let gentle = Ccsim_cca.Aimd.create ~a:1.0 ~b:0.5 () in
  let aggressive = Ccsim_cca.Aimd.create ~a:4.0 ~b:0.5 () in
  List.iter
    (fun cca ->
      for _ = 1 to 6 do
        ack_window cca
      done;
      cca.Cca.on_loss ())
    [ gentle; aggressive ];
  let g0 = gentle.Cca.cwnd and a0 = aggressive.Cca.cwnd in
  for _ = 1 to 3 do
    ack_window gentle;
    ack_window aggressive
  done;
  Alcotest.(check bool) "a=4 grows faster" true
    (aggressive.Cca.cwnd -. a0 > 2.0 *. (gentle.Cca.cwnd -. g0))

let test_aimd_validates_parameters () =
  Alcotest.check_raises "b out of range" (Invalid_argument "Aimd.create: b must be in (0,1)")
    (fun () -> ignore (Ccsim_cca.Aimd.create ~b:1.5 ()))

(* --- Cubic specifics ---------------------------------------------------------------- *)

let test_cubic_beta_07 () =
  let cca = Ccsim_cca.Cubic.create () in
  for _ = 1 to 6 do
    ack_window cca
  done;
  let before = cca.Cca.cwnd in
  cca.Cca.on_loss ();
  Alcotest.(check (float 1.0)) "beta 0.7" (0.7 *. before) cca.Cca.cwnd

let test_cubic_concave_then_convex () =
  let cca = Ccsim_cca.Cubic.create () in
  for _ = 1 to 6 do
    ack_window cca
  done;
  cca.Cca.on_loss ();
  (* Growth rate shrinks while approaching W_max, then grows past it. *)
  let now = ref 1.0 in
  let growth_at_plateau = ref 0.0 and growth_later = ref 0.0 in
  for round = 1 to 120 do
    let before = cca.Cca.cwnd in
    now := !now +. 0.1;
    let packets = max 1 (int_of_float (cca.Cca.cwnd /. fmss)) in
    for _ = 1 to packets do
      cca.Cca.on_ack (ack ~now:!now ())
    done;
    let delta = cca.Cca.cwnd -. before in
    if round = 80 then growth_at_plateau := delta;
    if round = 120 then growth_later := delta
  done;
  Alcotest.(check bool) "nearly flat at W_max" true (!growth_at_plateau < 0.2 *. fmss);
  Alcotest.(check bool) "convex growth past W_max" true
    (!growth_later > 4.0 *. !growth_at_plateau)

(* --- Vegas specifics ------------------------------------------------------------------ *)

let test_vegas_backs_off_on_delay () =
  let cca = Ccsim_cca.Vegas.create () in
  (* Grow a sizeable window first, then leave slow start: the Vegas diff
     signal is proportional to the window, so a tiny window sits inside
     the [alpha, beta] dead zone. *)
  for _ = 1 to 4 do
    ack_window cca
  done;
  cca.Cca.on_loss ();
  let before = cca.Cca.cwnd in
  (* Heavily queued path: srtt far above min_rtt -> decrease. *)
  let now = ref 10.0 in
  for _ = 1 to 40 do
    now := !now +. 0.3;
    cca.Cca.on_ack (ack ~now:!now ~srtt:0.3 ~min_rtt:0.1 ())
  done;
  Alcotest.(check bool) "window reduced under queueing" true (cca.Cca.cwnd < before)

let test_vegas_grows_when_queue_empty () =
  let cca = Ccsim_cca.Vegas.create () in
  cca.Cca.on_loss ();
  let before = cca.Cca.cwnd in
  let now = ref 10.0 in
  for _ = 1 to 40 do
    now := !now +. 0.1;
    cca.Cca.on_ack (ack ~now:!now ~srtt:0.1001 ~min_rtt:0.1 ())
  done;
  Alcotest.(check bool) "window grows on an empty path" true (cca.Cca.cwnd > before)

(* --- Copa ---------------------------------------------------------------------------- *)

let test_copa_tracks_target_rate () =
  let cca = Ccsim_cca.Copa.create ~delta:0.5 () in
  (* With dq = 0.05 s the target is 1/(0.5*0.05) = 40 pkts/s; at srtt
     0.15 s that's a window of 6 packets. Start far above: must shrink. *)
  let now = ref 0.0 in
  for _ = 1 to 400 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~srtt:0.15 ~min_rtt:0.1 ())
  done;
  let w_pkts = cca.Cca.cwnd /. fmss in
  Alcotest.(check bool) "converges near target window" true (w_pkts > 3.0 && w_pkts < 12.0)

let test_copa_mild_loss_reaction () =
  let cca = Ccsim_cca.Copa.create () in
  let now = ref 0.0 in
  for _ = 1 to 100 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~srtt:0.12 ~min_rtt:0.1 ())
  done;
  let before = cca.Cca.cwnd in
  cca.Cca.on_loss ();
  Alcotest.(check bool) "halves at most" true (cca.Cca.cwnd >= 0.5 *. before -. 1e-6)

(* --- BBR ----------------------------------------------------------------------------- *)

let test_bbr_paces_at_measured_bandwidth () =
  let cca = Ccsim_cca.Bbr.create () in
  let now = ref 0.0 in
  for _ = 1 to 500 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~rate:20e6 ~inflight:(30 * mss) ())
  done;
  Alcotest.(check bool) "pacing within [0.7, 3] x btlbw" true
    (cca.Cca.pacing_rate > 0.7 *. 20e6 && cca.Cca.pacing_rate < 3.0 *. 20e6)

let test_bbr_cwnd_tracks_bdp () =
  let cca = Ccsim_cca.Bbr.create () in
  let now = ref 0.0 in
  for _ = 1 to 1000 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~rate:20e6 ~rtt:(Some 0.1) ~min_rtt:0.1 ~inflight:(30 * mss) ())
  done;
  (* BDP = 20e6 * 0.1 / 8 = 250 kB; cwnd_gain 2 in PROBE_BW. *)
  Alcotest.(check bool) "cwnd ~ 2x BDP" true
    (cca.Cca.cwnd > 1.2 *. 250_000.0 && cca.Cca.cwnd < 3.0 *. 250_000.0)

let test_bbr_ignores_isolated_loss () =
  let cca = Ccsim_cca.Bbr.create () in
  let now = ref 0.0 in
  for _ = 1 to 200 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~rate:20e6 ())
  done;
  let before = cca.Cca.cwnd in
  cca.Cca.on_loss ();
  Alcotest.(check (float 1e-9)) "loss ignored" before cca.Cca.cwnd

let test_bbr_app_limited_samples_do_not_raise_estimate () =
  let cca = Ccsim_cca.Bbr.create () in
  let now = ref 0.0 in
  for _ = 1 to 200 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~rate:10e6 ())
  done;
  let pace_before = cca.Cca.pacing_rate in
  (* App-limited samples claiming much higher rates must be ignored...
     unless they *exceed* the filter (they cannot raise it here since the
     sample is below). *)
  for _ = 1 to 100 do
    now := !now +. 0.01;
    cca.Cca.on_ack (ack ~now:!now ~rate:5e6 ~app_limited:true ())
  done;
  Alcotest.(check bool) "estimate not dragged down immediately" true
    (cca.Cca.pacing_rate >= 0.5 *. pace_before)

(* Minor words per ack over 30 rounds of about [per_round] acks each. A
   round ends when the bytes in flight at its start are delivered, so
   shrinking the bytes each ack covers lengthens the round while the
   window, and so BBR's state machine, stays the same. Ack records are
   built before measuring. *)
let bbr_words_per_ack ~per_round =
  let cca = Ccsim_cca.Bbr.create () in
  let inflight = 30 * mss in
  let newly = inflight / per_round in
  let n = 30 * per_round in
  let acks =
    Array.init (2 * n) (fun i ->
        ack ~now:(0.01 *. float_of_int (i / per_round)) ~rate:(20e6 +. float_of_int (i mod 97))
          ~newly ~inflight ())
  in
  (* The first half warms up past the filter window and STARTUP. *)
  let warm = Array.sub acks 0 n and measured = Array.sub acks n n in
  Array.iter cca.Cca.on_ack warm;
  let before = Gc.minor_words () in
  Array.iter cca.Cca.on_ack measured;
  (Gc.minor_words () -. before) /. float_of_int n

(* The bandwidth filter keeps one slot per round, not one entry per ack,
   so a wider window (more acks per round) costs no more per ack. *)
let test_bbr_per_ack_cost_flat_in_window () =
  let narrow = bbr_words_per_ack ~per_round:10 in
  let wide = bbr_words_per_ack ~per_round:2000 in
  Alcotest.(check bool)
    (Printf.sprintf "words/ack at 2000 acks/round (%.2f) = at 10 (%.2f)" wide narrow)
    true
    (wide <= narrow +. 0.5)

(* --- fixed CCAs -------------------------------------------------------------------------- *)

let test_fixed_window () =
  let cca = Cca.fixed_window ~cwnd_bytes:50_000 in
  cca.Cca.on_ack (ack ());
  cca.Cca.on_loss ();
  cca.Cca.on_rto ~now:1.0;
  Alcotest.(check (float 1e-9)) "window never moves" 50_000.0 cca.Cca.cwnd

let test_fixed_rate () =
  let cca = Cca.fixed_rate ~rate_bps:3e6 in
  cca.Cca.on_ack (ack ());
  Alcotest.(check (float 1e-9)) "rate never moves" 3e6 cca.Cca.pacing_rate

let suite =
  [
    ("all: initial window is IW10", `Quick, test_initial_window);
    ("all: slow start doubles", `Quick, test_slow_start_grows_fast);
    ("all: loss shrinks the window", `Quick, test_loss_shrinks_window);
    ("all: RTO collapses the window", `Quick, test_rto_collapses_window);
    ("all: window floor 2 MSS", `Quick, test_window_floor);
    ("reno: halves on loss", `Quick, test_reno_halves_on_loss);
    ("reno: 1 MSS/RTT in avoidance", `Quick, test_reno_linear_in_avoidance);
    ("aimd: configurable beta", `Quick, test_aimd_beta);
    ("aimd: alpha scales growth", `Quick, test_aimd_aggressive_alpha_grows_faster);
    ("aimd: parameter validation", `Quick, test_aimd_validates_parameters);
    ("cubic: beta 0.7", `Quick, test_cubic_beta_07);
    ("cubic: convex growth past W_max", `Quick, test_cubic_concave_then_convex);
    ("vegas: backs off under queueing", `Quick, test_vegas_backs_off_on_delay);
    ("vegas: grows on empty path", `Quick, test_vegas_grows_when_queue_empty);
    ("copa: converges toward target", `Quick, test_copa_tracks_target_rate);
    ("copa: mild loss reaction", `Quick, test_copa_mild_loss_reaction);
    ("bbr: paces at measured bandwidth", `Quick, test_bbr_paces_at_measured_bandwidth);
    ("bbr: cwnd tracks BDP", `Quick, test_bbr_cwnd_tracks_bdp);
    ("bbr: ignores isolated loss", `Quick, test_bbr_ignores_isolated_loss);
    ("bbr: app-limited filter", `Quick, test_bbr_app_limited_samples_do_not_raise_estimate);
    ("bbr: per-ack cost flat in the window", `Quick, test_bbr_per_ack_cost_flat_in_window);
    ("fixed window control", `Quick, test_fixed_window);
    ("fixed rate control", `Quick, test_fixed_rate);
  ]
