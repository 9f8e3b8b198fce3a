(* Tests for the TCP layer: RTT estimation, sender/receiver behaviour on
   real simulated paths, loss recovery, flow control, TCPInfo accounting. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Tcp = Ccsim_tcp
module U = Ccsim_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rtt_estimator ------------------------------------------------------------ *)

let test_rtt_first_sample () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.observe e 0.1;
  check_float "srtt is the sample" 0.1 (Tcp.Rtt_estimator.srtt e);
  check_float "rttvar is half" 0.05 (Tcp.Rtt_estimator.rttvar e);
  check_float "min" 0.1 (Tcp.Rtt_estimator.min_rtt e)

let test_rtt_smoothing () =
  let e = Tcp.Rtt_estimator.create () in
  Tcp.Rtt_estimator.observe e 0.1;
  Tcp.Rtt_estimator.observe e 0.2;
  (* srtt = 7/8*0.1 + 1/8*0.2 *)
  check_float "smoothed" 0.1125 (Tcp.Rtt_estimator.srtt e);
  check_float "min keeps smallest" 0.1 (Tcp.Rtt_estimator.min_rtt e)

let test_rtt_rto_floor_and_backoff () =
  let e = Tcp.Rtt_estimator.create ~min_rto:0.2 () in
  Tcp.Rtt_estimator.observe e 0.01;
  check_float "rto floored" 0.2 (Tcp.Rtt_estimator.rto e);
  Tcp.Rtt_estimator.backoff e;
  check_float "doubled" 0.4 (Tcp.Rtt_estimator.rto e);
  Tcp.Rtt_estimator.backoff e;
  check_float "doubled again" 0.8 (Tcp.Rtt_estimator.rto e);
  Tcp.Rtt_estimator.observe e 0.01;
  check_float "sample resets backoff" 0.2 (Tcp.Rtt_estimator.rto e)

let test_rtt_initial_rto () =
  let e = Tcp.Rtt_estimator.create () in
  check_float "1s before samples" 1.0 (Tcp.Rtt_estimator.rto e)

let test_rtt_rejects_nonpositive () =
  let e = Tcp.Rtt_estimator.create () in
  Alcotest.check_raises "bad sample"
    (Invalid_argument "Rtt_estimator.observe: RTT must be positive") (fun () ->
      Tcp.Rtt_estimator.observe e 0.0)

(* --- connection over an ideal path --------------------------------------------- *)

let make_topo ?(rate = 10e6) ?(delay = 0.01) ?qdisc ?loss_every sim =
  let topo = Net.Topology.dumbbell sim ~rate_bps:rate ~delay_s:delay ?qdisc () in
  match loss_every with
  | None -> topo
  | Some n ->
      (* Wrap the forward entry to drop every n-th data packet once. *)
      let count = ref 0 in
      let orig = topo.fwd_entry in
      let entry ~flow pkt =
        incr count;
        if !count mod n = 0 && Net.Packet.is_data pkt && not pkt.Net.Packet.retx then ()
        else (orig ~flow) pkt
      in
      { topo with fwd_entry = entry }

let test_transfer_completes () =
  let sim = Sim.create () in
  let topo = make_topo sim in
  let completed = ref None in
  let conn =
    Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ())
      ~on_complete:(fun _ -> completed := Some (Sim.now sim))
      ()
  in
  (* Small enough that the slow-start burst fits in the default buffer:
     nothing on the path ever drops. *)
  Tcp.Sender.write conn.sender 150_000;
  Tcp.Sender.close conn.sender;
  Sim.run ~until:30.0 sim;
  Alcotest.(check bool) "completed" true (!completed <> None);
  Alcotest.(check int) "receiver got everything" 150_000
    (Tcp.Receiver.bytes_received conn.receiver);
  Alcotest.(check int) "sender agrees" 150_000 (Tcp.Sender.bytes_acked conn.sender);
  Alcotest.(check int) "no retransmits on a clean path" 0 (Tcp.Sender.segs_retrans conn.sender)

(* A completed sender frees its scoreboard and delivery-rate rings and
   stays closed: asked to send again with [set_unlimited], it refuses as
   [write] does, and no byte is acked after completion. *)
let test_completed_sender_sends_again () =
  let sim = Sim.create () in
  let topo = make_topo sim in
  let completed = ref false in
  let conn =
    Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ())
      ~on_complete:(fun _ -> completed := true)
      ()
  in
  Tcp.Sender.write conn.sender 50_000;
  Tcp.Sender.close conn.sender;
  Sim.run ~until:5.0 sim;
  Alcotest.(check bool) "completed" true !completed;
  Alcotest.check_raises "set_unlimited refuses a closed sender"
    (Invalid_argument "Sender.set_unlimited: sender is closed") (fun () ->
      Tcp.Sender.set_unlimited conn.sender);
  Sim.run ~until:10.0 sim;
  Alcotest.(check int) "no byte acked after completion" 50_000 (Tcp.Sender.bytes_acked conn.sender);
  Alcotest.(check int) "the receiver got exactly the written bytes" 50_000
    (Tcp.Receiver.bytes_received conn.receiver)

let test_transfer_with_random_loss () =
  let sim = Sim.create () in
  let topo = make_topo ~loss_every:50 sim in
  let completed = ref false in
  let conn =
    Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ())
      ~on_complete:(fun _ -> completed := true)
      ()
  in
  Tcp.Sender.write conn.sender 500_000;
  Tcp.Sender.close conn.sender;
  Sim.run ~until:60.0 sim;
  Alcotest.(check bool) "completed despite loss" true !completed;
  Alcotest.(check int) "receiver got everything" 500_000
    (Tcp.Receiver.bytes_received conn.receiver);
  Alcotest.(check bool) "retransmissions happened" true (Tcp.Sender.segs_retrans conn.sender > 0)

let test_rtt_measured_matches_path () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:100e6 ~delay:0.04 sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ()) () in
  Tcp.Sender.write conn.sender 100_000;
  Tcp.Sender.close conn.sender;
  Sim.run ~until:10.0 sim;
  (* Base RTT = 2 * (0.04 + 0.001 edge) = 0.082 plus serialization. *)
  let srtt = Tcp.Sender.srtt conn.sender in
  Alcotest.(check bool) "srtt near base rtt" true (srtt > 0.08 && srtt < 0.1)

let test_min_rtt_no_queueing_bias () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:5e6 ~delay:0.02 sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ()) () in
  Tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:10.0 sim;
  let min_rtt = Tcp.Sender.min_rtt conn.sender in
  Alcotest.(check bool) "min rtt close to propagation" true
    (min_rtt > 0.04 && min_rtt < 0.06)

let test_goodput_matches_link () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:10e6 ~delay:0.01 sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  Tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:30.0 sim;
  let goodput = Tcp.Connection.goodput_bps conn ~over:30.0 in
  (* Payload share of the wire rate is mss/(mss+header) ~ 96.5%. *)
  Alcotest.(check bool) "goodput near capacity" true (goodput > 8.5e6 && goodput < 10e6)

let test_rwnd_limits_throughput () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:100e6 ~delay:0.02 sim in
  (* Receiver drains at most 2 Mbit/s with a small buffer: flow must be
     receiver-limited well below capacity. *)
  let conn =
    Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ())
      ~rcv_buffer_bytes:20_000 ~consume_rate_bps:2e6 ()
  in
  Tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:20.0 sim;
  let goodput = Tcp.Connection.goodput_bps conn ~over:20.0 in
  Alcotest.(check bool) "pinned near consume rate" true (goodput < 3e6);
  let info = Tcp.Sender.info conn.sender in
  Alcotest.(check bool) "rwnd-limited time dominates" true
    (info.rwnd_limited_s > 0.5 *. info.elapsed_s)

let test_app_limited_accounting () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:100e6 ~delay:0.01 sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Cubic.create ()) () in
  (* Trickle 10 kB every 100 ms over a 100 Mbit/s path: app-limited. *)
  Sim.every sim ~interval:0.1 ~stop_after:9.9 (fun () -> Tcp.Sender.write conn.sender 10_000);
  Sim.run ~until:10.0 sim;
  let info = Tcp.Sender.info conn.sender in
  Alcotest.(check bool) "app-limited dominates" true
    (info.app_limited_s > 0.8 *. info.elapsed_s);
  Alcotest.(check bool) "cwnd-limited negligible" true
    (info.cwnd_limited_s < 0.1 *. info.elapsed_s)

(* --- Tcp_info ------------------------------------------------------------------ *)

let info_at ?(bytes_acked = 0) ?(app_limited_s = 0.0) ?(elapsed_s = 0.0) at =
  {
    Tcp.Tcp_info.at;
    bytes_acked;
    min_rtt = 0.0;
    app_limited_s;
    rwnd_limited_s = 0.0;
    cwnd_limited_s = 0.0;
    pacing_limited_s = 0.0;
    recovery_s = 0.0;
    elapsed_s;
  }

let test_tcp_info_throughput_rejects_non_monotonic () =
  let prev = info_at ~bytes_acked:1000 2.0 in
  let err = Invalid_argument "Tcp_info.throughput_bps: snapshots out of order" in
  (* Identical timestamps: a zero-width window has no defined rate. *)
  Alcotest.check_raises "equal timestamps" err (fun () ->
      ignore (Tcp.Tcp_info.throughput_bps ~prev ~cur:(info_at ~bytes_acked:2000 2.0)));
  (* Reversed order must not return a negative rate. *)
  Alcotest.check_raises "reversed order" err (fun () ->
      ignore (Tcp.Tcp_info.throughput_bps ~prev ~cur:(info_at ~bytes_acked:2000 1.0)));
  (* Sanity: a valid pair still computes. *)
  let cur = info_at ~bytes_acked:2250 3.0 in
  check_float "valid pair" 10_000.0 (Tcp.Tcp_info.throughput_bps ~prev ~cur)

let test_tcp_info_app_limited_fraction_zero_elapsed () =
  (* A snapshot taken at connection age zero must read 0, not NaN/inf. *)
  let snap = info_at ~app_limited_s:0.0 ~elapsed_s:0.0 0.0 in
  check_float "zero elapsed" 0.0 (Tcp.Tcp_info.app_limited_fraction snap);
  let weird = info_at ~app_limited_s:1.5 ~elapsed_s:0.0 0.0 in
  check_float "zero elapsed, nonzero numerator" 0.0
    (Tcp.Tcp_info.app_limited_fraction weird);
  check_float "rwnd fraction too" 0.0 (Tcp.Tcp_info.rwnd_limited_fraction weird);
  let normal = info_at ~app_limited_s:2.0 ~elapsed_s:8.0 8.0 in
  check_float "normal fraction" 0.25 (Tcp.Tcp_info.app_limited_fraction normal)

let test_cwnd_limited_accounting () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:5e6 ~delay:0.05 sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ()) () in
  Tcp.Sender.set_unlimited conn.sender;
  Sim.run ~until:10.0 sim;
  let info = Tcp.Sender.info conn.sender in
  Alcotest.(check bool) "bulk flow is mostly cwnd-limited or busy" true
    (info.app_limited_s < 0.1 *. info.elapsed_s)

let test_pacing_respected () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let topo = make_topo ~rate:100e6 ~delay:0.001 sim in
  Net.Dispatch.register topo.fwd_dispatch ~flow:5 (fun _ ->
      arrivals := Sim.now sim :: !arrivals);
  let cca = Ccsim_cca.Cca.fixed_rate ~rate_bps:1.2e6 (* ~10 ms per 1500B packet *) in
  let sender = Tcp.Sender.create sim ~flow:5 ~cca ~path:(topo.fwd_entry ~flow:5) () in
  Tcp.Sender.write sender 30_000;
  Tcp.Sender.close sender;
  Sim.run ~until:5.0 sim;
  let times = Array.of_list (List.rev !arrivals) in
  Alcotest.(check bool) "several packets" true (Array.length times > 10);
  (* Check inter-arrival gaps reflect pacing, not a burst. *)
  let gaps = Array.init (Array.length times - 1) (fun i -> times.(i + 1) -. times.(i)) in
  Alcotest.(check bool) "paced gaps ~10ms" true (U.Stats.median gaps > 0.008)

let test_teardown_unregisters () =
  let sim = Sim.create () in
  let topo = make_topo sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ()) () in
  Tcp.Connection.teardown topo conn;
  (* A second connection can reuse the flow id. *)
  let conn2 = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ()) () in
  Tcp.Sender.write conn2.sender 10_000;
  Tcp.Sender.close conn2.sender;
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "second connection works" 10_000
    (Tcp.Receiver.bytes_received conn2.receiver)

let test_write_validation () =
  let sim = Sim.create () in
  let topo = make_topo sim in
  let conn = Tcp.Connection.establish topo ~flow:0 ~cca:(Ccsim_cca.Reno.create ()) () in
  Alcotest.check_raises "zero write" (Invalid_argument "Sender.write: bytes must be positive")
    (fun () -> Tcp.Sender.write conn.sender 0);
  Tcp.Sender.close conn.sender;
  Alcotest.check_raises "write after close" (Invalid_argument "Sender.write: sender is closed")
    (fun () -> Tcp.Sender.write conn.sender 10)

(* --- receiver-side specifics ------------------------------------------------------ *)

let test_receiver_out_of_order_reassembly () =
  let sim = Sim.create () in
  let acks = ref [] in
  let receiver =
    Tcp.Receiver.create sim ~flow:0 ~ack_path:(fun pkt -> acks := pkt.Net.Packet.ack :: !acks) ()
  in
  let seg seq = Net.Packet.data ~flow:0 ~seq ~payload_bytes:1000 ~sent_at:0.0 () in
  Tcp.Receiver.handle_data receiver (seg 0);
  Tcp.Receiver.handle_data receiver (seg 2000);
  (* hole at 1000 *)
  Tcp.Receiver.handle_data receiver (seg 1000);
  Alcotest.(check (list int)) "cumulative acks" [ 1000; 1000; 3000 ] (List.rev !acks);
  Alcotest.(check int) "contiguous bytes" 3000 (Tcp.Receiver.bytes_received receiver)

let test_receiver_sack_blocks () =
  let sim = Sim.create () in
  let sacks = ref [] in
  let receiver =
    Tcp.Receiver.create sim ~flow:0
      ~ack_path:(fun pkt -> sacks := pkt.Net.Packet.sacks :: !sacks)
      ()
  in
  let seg seq = Net.Packet.data ~flow:0 ~seq ~payload_bytes:1000 ~sent_at:0.0 () in
  Tcp.Receiver.handle_data receiver (seg 2000);
  (match !sacks with
  | [ [ (2000, 3000) ] ] -> ()
  | _ -> Alcotest.fail "expected a single SACK block [2000,3000)");
  Tcp.Receiver.handle_data receiver (seg 4000);
  (match !sacks with
  | [ (2000, 3000); (4000, 5000) ] :: _ -> ()
  | _ -> Alcotest.fail "expected two SACK blocks")

let test_receiver_duplicate_data_idempotent () =
  let sim = Sim.create () in
  let receiver = Tcp.Receiver.create sim ~flow:0 ~ack_path:(fun _ -> ()) () in
  let seg = Net.Packet.data ~flow:0 ~seq:0 ~payload_bytes:1000 ~sent_at:0.0 () in
  Tcp.Receiver.handle_data receiver seg;
  Tcp.Receiver.handle_data receiver seg;
  Alcotest.(check int) "no double count" 1000 (Tcp.Receiver.bytes_received receiver)

let test_receiver_window_shrinks_with_backlog () =
  let sim = Sim.create () in
  let receiver =
    Tcp.Receiver.create sim ~flow:0 ~ack_path:(fun _ -> ()) ~buffer_bytes:10_000
      ~consume_rate_bps:8_000.0 ()
  in
  let seg seq = Net.Packet.data ~flow:0 ~seq ~payload_bytes:1000 ~sent_at:0.0 () in
  for i = 0 to 7 do
    Tcp.Receiver.handle_data receiver (seg (i * 1000))
  done;
  (* 8 kB arrived instantly; app drained ~0: window should be ~2 kB. *)
  Alcotest.(check bool) "window shrank" true (Tcp.Receiver.advertised_window receiver <= 2_100);
  Sim.run ~until:5.0 sim;
  ignore (Sim.now sim);
  (* After 5 s the app drained 5 kB more. *)
  Alcotest.(check bool) "window recovers as the app drains" true
    (Tcp.Receiver.advertised_window receiver > 6_000)

(* --- UDP ---------------------------------------------------------------------------- *)

let test_udp_source_sink () =
  let sim = Sim.create () in
  let topo = make_topo sim in
  let sink = Tcp.Udp.Sink.create sim () in
  Net.Dispatch.register topo.fwd_dispatch ~flow:9 (Tcp.Udp.Sink.handle sink);
  let source = Tcp.Udp.Source.create sim ~flow:9 ~path:(topo.fwd_entry ~flow:9) () in
  Tcp.Udp.Source.send source ~bytes:5000;
  Sim.run sim;
  Alcotest.(check int) "bytes arrive" 5000 (Tcp.Udp.Sink.bytes_received sink);
  Alcotest.(check int) "split into mss packets" 4 (Tcp.Udp.Sink.packets_received sink)

let test_udp_jitter_zero_for_cbr_on_idle_link () =
  let sim = Sim.create () in
  let topo = make_topo ~rate:100e6 sim in
  let sink = Tcp.Udp.Sink.create sim () in
  Net.Dispatch.register topo.fwd_dispatch ~flow:9 (Tcp.Udp.Sink.handle sink);
  let source = Tcp.Udp.Source.create sim ~flow:9 ~path:(topo.fwd_entry ~flow:9) () in
  Sim.every sim ~interval:0.01 ~stop_after:1.0 (fun () ->
      Tcp.Udp.Source.send source ~bytes:1000);
  Sim.run sim;
  Alcotest.(check bool) "near-zero jitter" true (Tcp.Udp.Sink.interarrival_jitter sink < 1e-4)

(* --- Scoreboard vs the reference queue sweep ------------------------------------ *)

module Board = Tcp.Scoreboard
module Ref_board = Ref_scoreboard

let board_mss = 1000

(* A block is read against the segments sent so far: [Aligned (a, k)]
   spans k + 1 whole segments from segment a (modulo those ever sent,
   so often below the cumulative ack); [Raw (a, b)] is a byte range cut
   anywhere. *)
type block = Aligned of int * int | Raw of int * int

type board_op =
  | Send of int  (* payload bytes *)
  | Tick of float
  | Retransmit  (* the next lost segment, if any *)
  | Ack of int  (* to the end of a segment on the board, or a raw offset if negative *)
  | Sack of block list
  | Detect of float  (* smoothed RTT *)
  | Head_lost
  | Rto
  | Drain  (* ack everything sent, then release the emptied board's rings *)

let show_block = function
  | Aligned (a, k) -> Printf.sprintf "seg%d+%d" a k
  | Raw (a, b) -> Printf.sprintf "raw%d+%d" a b

let show_board_op = function
  | Send n -> Printf.sprintf "send %d" n
  | Tick dt -> Printf.sprintf "tick %g" dt
  | Retransmit -> "retransmit"
  | Ack k -> Printf.sprintf "ack %d" k
  | Sack bs -> "sack [" ^ String.concat "; " (List.map show_block bs) ^ "]"
  | Detect srtt -> Printf.sprintf "detect srtt=%g" srtt
  | Head_lost -> "head-lost"
  | Rto -> "rto"
  | Drain -> "drain"

(* Ticks of zero give equal send times; smoothed RTTs from 0 (the 100 ms
   default window) to 0.4 s make the RACK window shrink and grow. SACK
   lists repeat a block, overlap, go stale and cut through segments. *)
let board_trace =
  let open QCheck.Gen in
  let block =
    frequency
      [
        (3, map2 (fun a k -> Aligned (a, k)) nat (int_range 0 4));
        (1, map2 (fun a b -> Raw (a, b)) nat (int_range 0 (4 * board_mss)));
      ]
  in
  let blocks =
    frequency
      [
        (4, list_size (int_range 1 3) block);
        (1, map (fun b -> [ b; b ]) block);
      ]
  in
  let op =
    frequency
      [
        (6, map (fun n -> Send n) (frequency [ (4, return board_mss); (1, int_range 1 board_mss) ]));
        (4, map (fun dt -> Tick dt) (oneofl [ 0.0; 0.001; 0.01; 0.04; 0.1; 0.3 ]));
        (3, return Retransmit);
        (2, map (fun k -> Ack k) (int_range (-2 * board_mss) 6));
        (5, map (fun bs -> Sack bs) blocks);
        (4, map (fun srtt -> Detect srtt) (oneofl [ 0.0; 0.005; 0.02; 0.05; 0.1; 0.4 ]));
        (1, return Head_lost);
        (1, return Rto);
        (1, return Drain);
      ]
  in
  list_size (int_range 0 400) op

(* Run [ops] through the indexed scoreboard and the reference side by
   side, like a sender would: contiguous sends, a monotone clock and a
   monotone cumulative ack. After every step, every segment's flags, the
   counters and the next lost segment agree. *)
let boards_agree ops =
  let fast = Board.create ~mss:board_mss and slow = Ref_board.create ~mss:board_mss in
  let now = ref 0.0 and snd_nxt = ref 0 and snd_una = ref 0 in
  let starts = ref [||] in
  (* byte offset of every segment ever sent, and one past the last *)
  let bound i = if i < Array.length !starts then !starts.(i) else !snd_nxt in
  let block_range = function
    | Aligned (a, k) ->
        let n = Array.length !starts in
        if n = 0 then (0, 0)
        else
          let a = a mod n in
          (bound a, bound (min n (a + k + 1)))
    | Raw (a, b) ->
        let lo = a mod (!snd_nxt + 1) in
        (lo, lo + b)
  in
  let step = function
    | Send len ->
        starts := Array.append !starts [| !snd_nxt |];
        Board.send fast ~seq:!snd_nxt ~len ~now:!now;
        Ref_board.send slow ~seq:!snd_nxt ~len ~now:!now;
        snd_nxt := !snd_nxt + len
    | Tick dt -> now := !now +. dt
    | Retransmit ->
        let i = Board.next_lost_segment fast in
        if i >= 0 then begin
          Board.retransmit fast i ~now:!now;
          Ref_board.retransmit slow i ~now:!now
        end
    | Ack k ->
        let una =
          if k >= 0 then bound (min (Board.tail fast) (Board.head fast + k))
          else min !snd_nxt (!snd_una - k)
        in
        if una > !snd_una then begin
          snd_una := una;
          Board.retire_acked fast ~snd_una:una;
          Ref_board.retire_acked slow ~snd_una:una
        end
    | Sack blocks ->
        let sacks = List.map block_range blocks in
        Board.process_sacks fast sacks;
        Ref_board.process_sacks slow sacks
    | Detect srtt ->
        Board.detect_losses fast ~now:!now ~srtt;
        Ref_board.detect_losses slow ~now:!now ~srtt
    | Head_lost ->
        Board.mark_head_lost fast;
        Ref_board.mark_head_lost slow
    | Rto ->
        Board.mark_all_lost fast;
        Ref_board.mark_all_lost slow
    | Drain ->
        (* A completed sender: the board empties and frees its rings;
           later sends must grow them again from empty. *)
        snd_una := !snd_nxt;
        Board.retire_acked fast ~snd_una:!snd_nxt;
        Ref_board.retire_acked slow ~snd_una:!snd_nxt;
        Board.release fast
  in
  let agree () =
    let head = Board.head fast and tail = Board.tail fast in
    let rec segments_agree i =
      i >= tail
      || Board.seq fast i = Ref_board.seq slow i
         && Board.len fast i = Ref_board.len slow i
         && Bool.equal (Board.sacked fast i) (Ref_board.sacked slow i)
         && Bool.equal (Board.lost fast i) (Ref_board.lost slow i)
         && Bool.equal (Board.in_pipe fast i) (Ref_board.in_pipe slow i)
         && segments_agree (i + 1)
    in
    head = Ref_board.head slow
    && tail = Ref_board.tail slow
    && segments_agree head
    && Board.pipe_bytes fast = Ref_board.pipe_bytes slow
    && Board.lost_bytes fast = Ref_board.lost_bytes slow
    && Board.delivered_bytes fast = Ref_board.delivered_bytes slow
    && Board.highest_sacked fast = Ref_board.highest_sacked slow
    && Float.equal (Board.newest_delivered_sent_at fast) (Ref_board.newest_delivered_sent_at slow)
    && Board.next_lost_segment fast = Ref_board.next_lost_segment slow
  in
  List.for_all
    (fun op ->
      step op;
      agree ())
    ops

(* A board holding far more than the initial ring: growth must carry
   the segments, their SACK skips and the send log across. *)
let test_scoreboard_grows () =
  let b = Board.create ~mss:1000 in
  for i = 0 to 999 do
    Board.send b ~seq:(i * 1000) ~len:1000 ~now:(float_of_int i *. 0.001)
  done;
  Board.process_sacks b [ (1000, 500_000); (600_000, 1_000_000) ];
  Board.detect_losses b ~now:1.0 ~srtt:0.1;
  Alcotest.(check int) "sacked bytes" (499_000 + 400_000) (Board.delivered_bytes b);
  Alcotest.(check int) "DupThresh condemns every hole" ((1 + 100) * 1000)
    (Board.lost_bytes b);
  Alcotest.(check int) "the oldest hole goes first" 0 (Board.next_lost_segment b);
  Alcotest.(check int) "nothing left in the pipe" 0 (Board.pipe_bytes b);
  Board.retire_acked b ~snd_una:1_000_000;
  Alcotest.(check int) "all retired" 1000 (Board.head b);
  Alcotest.(check int) "holes counted once delivered" 1_000_000 (Board.delivered_bytes b)

let test_scoreboard_rejects_bad_segments () =
  let b = Board.create ~mss:1000 in
  Board.send b ~seq:0 ~len:1000 ~now:0.0;
  Alcotest.check_raises "not on the board"
    (Invalid_argument "Scoreboard.len: segment not on the board") (fun () ->
      ignore (Board.len b 1));
  Alcotest.check_raises "not lost"
    (Invalid_argument "Scoreboard.retransmit: segment not marked lost") (fun () ->
      Board.retransmit b 0 ~now:0.0);
  Alcotest.check_raises "release with a segment on the board"
    (Invalid_argument "Scoreboard.release: segments still on the board") (fun () ->
      Board.release b)

(* --- Receiver reassembly vs the reference sort-and-merge -------------------------- *)

(* The receiver's previous [integrate]: cons, sort, merge, advance. *)
let ref_integrate (rcv_nxt, ooo) ~seq ~len =
  let rcv_nxt = ref rcv_nxt in
  let lo = seq and hi = seq + len in
  if hi > !rcv_nxt then begin
    let ranges = (max lo !rcv_nxt, hi) :: ooo in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) ranges in
    let merged =
      List.fold_left
        (fun acc (lo, hi) ->
          match acc with
          | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
          | _ -> (lo, hi) :: acc)
        [] sorted
    in
    let merged = List.rev merged in
    let rec advance ranges =
      match ranges with
      | (lo, hi) :: rest when lo <= !rcv_nxt ->
          if hi > !rcv_nxt then rcv_nxt := hi;
          advance rest
      | rest -> rest
    in
    let ooo = advance merged in
    (!rcv_nxt, ooo)
  end
  else (!rcv_nxt, ooo)

(* Arrivals on a 500-byte grid around the cumulative ack, so adjacent,
   overlapping, duplicate and below-rcv_nxt ranges are all common, plus
   ranges cut anywhere. *)
let reassembly_trace =
  let open QCheck.Gen in
  let arrival =
    frequency
      [
        (4, map2 (fun k m -> (500 * k, 500 * m)) (int_range (-3) 12) (int_range 1 4));
        (1, map2 (fun a n -> (a, n)) (int_range (-2000) 8000) (int_range 1 2500));
      ]
  in
  list_size (int_range 0 200) arrival

let reassembly_agrees arrivals =
  let sim = Sim.create () in
  let receiver = Tcp.Receiver.create sim ~flow:0 ~ack_path:ignore () in
  let state = ref (0, []) in
  List.for_all
    (fun (offset, len) ->
      let seq = max 0 (fst !state + offset) in
      Tcp.Receiver.handle_data receiver
        (Net.Packet.data ~flow:0 ~seq ~payload_bytes:len ~sent_at:0.0 ());
      state := ref_integrate !state ~seq ~len;
      let rcv_nxt, ooo = !state in
      Tcp.Receiver.bytes_received receiver = rcv_nxt
      && List.equal
           (fun (a, b) (c, d) -> a = c && b = d)
           (Tcp.Receiver.out_of_order receiver)
           ooo)
    arrivals

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"scoreboard matches the reference queue sweep" ~count:500
      (make
         ~print:(fun ops -> String.concat "; " (List.map show_board_op ops))
         ~shrink:Shrink.list board_trace)
      boards_agree;
    Test.make ~name:"receiver reassembly matches the reference sort-and-merge" ~count:500
      (make
         ~print:(fun l -> String.concat "; " (List.map (fun (o, n) -> Printf.sprintf "+%d:%d" o n) l))
         ~shrink:Shrink.list reassembly_trace)
      reassembly_agrees;
  ]


let suite =
  [
    ("rtt: first sample", `Quick, test_rtt_first_sample);
    ("rtt: smoothing", `Quick, test_rtt_smoothing);
    ("rtt: rto floor and backoff", `Quick, test_rtt_rto_floor_and_backoff);
    ("rtt: initial rto", `Quick, test_rtt_initial_rto);
    ("rtt: rejects non-positive", `Quick, test_rtt_rejects_nonpositive);
    ("tcp: clean transfer completes", `Quick, test_transfer_completes);
    ("tcp: transfer completes under loss", `Quick, test_transfer_with_random_loss);
    ("tcp: srtt matches path", `Quick, test_rtt_measured_matches_path);
    ("tcp: min rtt near propagation", `Quick, test_min_rtt_no_queueing_bias);
    ("tcp: goodput fills the link", `Quick, test_goodput_matches_link);
    ("tcp: receiver window limits throughput", `Quick, test_rwnd_limits_throughput);
    ("tcp: app-limited accounting", `Quick, test_app_limited_accounting);
    ("tcp: cwnd-limited accounting", `Quick, test_cwnd_limited_accounting);
    ("tcp_info: throughput rejects non-monotonic snapshots", `Quick,
     test_tcp_info_throughput_rejects_non_monotonic);
    ("tcp_info: app-limited fraction at zero elapsed", `Quick,
     test_tcp_info_app_limited_fraction_zero_elapsed);
    ("tcp: pacing respected", `Quick, test_pacing_respected);
    ("tcp: teardown unregisters", `Quick, test_teardown_unregisters);
    ("tcp: write validation", `Quick, test_write_validation);
    ("receiver: out-of-order reassembly", `Quick, test_receiver_out_of_order_reassembly);
    ("receiver: sack blocks", `Quick, test_receiver_sack_blocks);
    ("receiver: duplicates idempotent", `Quick, test_receiver_duplicate_data_idempotent);
    ("receiver: window tracks backlog", `Quick, test_receiver_window_shrinks_with_backlog);
    ("udp: source to sink", `Quick, test_udp_source_sink);
    ("udp: cbr jitter near zero", `Quick, test_udp_jitter_zero_for_cbr_on_idle_link);
    ("scoreboard: ring growth", `Quick, test_scoreboard_grows);
    ("sender: completed sender sends again", `Quick, test_completed_sender_sends_again);
    ("scoreboard: rejects bad segments", `Quick, test_scoreboard_rejects_bad_segments);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
