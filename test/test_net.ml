(* Tests for the network layer: packets, qdiscs, shapers, links,
   dispatch, topology. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Packet = Ccsim_net.Packet
module U = Ccsim_util

let check_float = Alcotest.(check (float 1e-9))

let data ?(flow = 0) ?(size = 1000) ?(seq = 0) () =
  Packet.data ~flow ~seq ~payload_bytes:size ~header_bytes:0 ~retx:false ~sent_at:0.0 ()

(* A qdisc's dequeue as an option, for matching. *)
let dequeue (q : Net.Qdisc.t) =
  let p = q.dequeue () in
  if p == Packet.none then None else Some p

(* --- Packet ------------------------------------------------------------------ *)

let test_packet_uids_unique () =
  let a = data () and b = data () in
  Alcotest.(check bool) "distinct uids" true (a.uid <> b.uid)

let test_packet_sizes () =
  let p = Packet.data ~flow:1 ~seq:100 ~payload_bytes:1448 ~retx:false ~sent_at:1.0 () in
  Alcotest.(check int) "wire size includes header" (1448 + U.Units.header_bytes) p.size_bytes;
  Alcotest.(check int) "end seq" (100 + 1448) (Packet.end_seq p);
  Alcotest.(check bool) "is data" true (Packet.is_data p);
  let a = Packet.ack ~flow:1 ~ack:500 ~echo:0.0 ~for_retx:false ~rwnd:max_int ~sacks:[] ~sent_at:1.0 in
  Alcotest.(check bool) "ack is not data" false (Packet.is_data a)

(* --- Fifo -------------------------------------------------------------------- *)

let test_fifo_order_and_backlog () =
  let q = Net.Fifo.create ~limit_bytes:10_000 () in
  let p1 = data ~seq:1 () and p2 = data ~seq:2 () in
  Alcotest.(check bool) "enq 1" true (q.Net.Qdisc.enqueue p1);
  Alcotest.(check bool) "enq 2" true (q.Net.Qdisc.enqueue p2);
  Alcotest.(check int) "backlog" 2000 (q.Net.Qdisc.backlog_bytes ());
  (match dequeue q with
  | Some p -> Alcotest.(check int) "fifo order" 1 p.seq
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "backlog drained" 1000 (q.Net.Qdisc.backlog_bytes ())

let test_fifo_drop_tail () =
  let q = Net.Fifo.create ~limit_bytes:2500 () in
  Alcotest.(check bool) "enq 1" true (q.Net.Qdisc.enqueue (data ()));
  Alcotest.(check bool) "enq 2" true (q.Net.Qdisc.enqueue (data ()));
  Alcotest.(check bool) "third dropped" false (q.Net.Qdisc.enqueue (data ()));
  Alcotest.(check int) "drop counted" 1 q.Net.Qdisc.stats.dropped;
  check_float "loss rate" (1.0 /. 3.0) (Net.Qdisc.loss_rate q)

(* --- Drr --------------------------------------------------------------------- *)

let test_drr_round_robin () =
  let q = Net.Drr.create ~quantum_bytes:1000 ~limit_bytes:100_000 () in
  (* Flow 0 floods; flow 1 has two packets. Service must alternate. *)
  for i = 0 to 9 do
    ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:i ()))
  done;
  ignore (q.Net.Qdisc.enqueue (data ~flow:1 ~seq:100 ()));
  ignore (q.Net.Qdisc.enqueue (data ~flow:1 ~seq:101 ()));
  let served = ref [] in
  for _ = 1 to 4 do
    match dequeue q with
    | Some p -> served := p.Packet.flow :: !served
    | None -> served := -1 :: !served
  done;
  let served = !served in
  let flow1_served = List.length (List.filter (fun f -> f = 1) served) in
  Alcotest.(check bool) "flow 1 served early" true (flow1_served >= 1)

let test_drr_fair_bytes () =
  let q = Net.Drr.create ~quantum_bytes:1000 ~limit_bytes:1_000_000 () in
  for i = 0 to 99 do
    ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:i ~size:1000 ()));
    ignore (q.Net.Qdisc.enqueue (data ~flow:1 ~seq:i ~size:1000 ()))
  done;
  let counts = Hashtbl.create 2 in
  for _ = 1 to 100 do
    match dequeue q with
    | Some p ->
        Hashtbl.replace counts p.Packet.flow
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts p.Packet.flow))
    | None -> ()
  done;
  let c0 = Option.value ~default:0 (Hashtbl.find_opt counts 0) in
  let c1 = Option.value ~default:0 (Hashtbl.find_opt counts 1) in
  Alcotest.(check int) "equal service" c0 c1

let test_drr_weights () =
  let q =
    Net.Drr.create ~quantum_bytes:1000 ~limit_bytes:1_000_000
      ~weight_of_flow:(fun f -> if f = 0 then 3.0 else 1.0)
      ()
  in
  for i = 0 to 199 do
    ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:i ~size:1000 ()));
    ignore (q.Net.Qdisc.enqueue (data ~flow:1 ~seq:i ~size:1000 ()))
  done;
  let c0 = ref 0 and c1 = ref 0 in
  for _ = 1 to 120 do
    match dequeue q with
    | Some p -> if p.Packet.flow = 0 then incr c0 else incr c1
    | None -> ()
  done;
  (* Expect roughly 3:1 service. *)
  Alcotest.(check bool) "weighted service"
    true
    (!c0 > 2 * !c1)

let test_drr_longest_queue_drop () =
  let q = Net.Drr.create ~quantum_bytes:1000 ~limit_bytes:5000 () in
  (* Flow 0 fills the buffer; flow 1's arrival should displace flow 0. *)
  for i = 0 to 4 do
    ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:i ~size:1000 ()))
  done;
  Alcotest.(check bool) "newcomer admitted" true (q.Net.Qdisc.enqueue (data ~flow:1 ~size:1000 ()));
  Alcotest.(check int) "one drop from the hog" 1 q.Net.Qdisc.stats.dropped

(* A NaN weight must be refused up front: its deficit would never cover
   a packet, and dequeue would spin forever on that flow. Enqueue only,
   so a regression fails here instead of hanging. *)
let test_drr_rejects_nan_weight () =
  let q = Net.Drr.create ~weight_of_flow:(fun _ -> Float.nan) () in
  Alcotest.check_raises "NaN weight" (Invalid_argument "Drr: flow weight must be positive")
    (fun () -> ignore (q.Net.Qdisc.enqueue (data ())))

(* Per-flow state is indexed by flow id: ids far past the initial
   capacity grow the table and are served in round-robin order, and a
   negative id is refused with a message naming it. *)
let test_drr_flow_ids () =
  let q = Net.Drr.create () in
  List.iter (fun flow -> ignore (q.Net.Qdisc.enqueue (data ~flow ()))) [ 40_000; 3; 1000; 17 ];
  let served =
    List.init 4 (fun _ ->
        match dequeue q with Some p -> p.Packet.flow | None -> -1)
  in
  Alcotest.(check (list int)) "arrival order, one packet each" [ 40_000; 3; 1000; 17 ] served;
  Alcotest.check_raises "negative id" (Invalid_argument "Drr: negative flow id -2") (fun () ->
      ignore (q.Net.Qdisc.enqueue (data ~flow:(-2) ())))

(* A longest-queue drop can empty the queue of the flow being served.
   When the arrival that forced it is refused too, the qdisc is empty;
   that flow must still be served when its next packet comes. *)
let test_drr_serves_flow_emptied_by_drop () =
  let q = Net.Drr.create ~quantum_bytes:1000 ~limit_bytes:2500 () in
  ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:1 ()));
  ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:2 ()));
  ignore (q.Net.Qdisc.dequeue ());
  Alcotest.(check bool) "oversized arrival refused" false
    (q.Net.Qdisc.enqueue (data ~flow:1 ~size:3000 ()));
  Alcotest.(check int) "empty" 0 (q.Net.Qdisc.backlog_packets ());
  ignore (q.Net.Qdisc.dequeue ());
  ignore (q.Net.Qdisc.enqueue (data ~flow:0 ~seq:3 ()));
  match dequeue q with
  | Some p -> Alcotest.(check int) "served" 3 p.Packet.seq
  | None -> Alcotest.fail "backlogged flow never served"

(* Drr vs the reference: the same packets into both, under a byte
   limit a few packets deep so longest-queue drops are frequent and
   queues often tie in length. Every packet fits the limit: an arrival
   larger than the whole buffer strands a flow in the reference (see the
   test above). *)
type drr_op = Enqueue of int * int | Dequeue

let drr_trace =
  let open QCheck.Gen in
  let size = frequency [ (4, return 1000); (1, oneofl [ 500; 1500; 2000 ]) ] in
  let op =
    frequency [ (3, map2 (fun flow size -> Enqueue (flow, size)) (int_range 0 5) size); (2, return Dequeue) ]
  in
  list_size (int_range 0 300) op

let show_drr_op = function
  | Enqueue (flow, size) -> Printf.sprintf "enq f%d %dB" flow size
  | Dequeue -> "deq"

let drr_agrees ops =
  let weight_of_flow flow = if flow = 2 then 2.0 else if flow = 4 then 0.5 else 1.0 in
  let fast = Net.Drr.create ~quantum_bytes:1000 ~limit_bytes:5000 ~weight_of_flow ()
  and slow = Ref_drr.create ~quantum_bytes:1000 ~limit_bytes:5000 ~weight_of_flow () in
  Net.Qdisc.enable_flow_drop_accounting fast.Net.Qdisc.stats;
  Net.Qdisc.enable_flow_drop_accounting slow.Net.Qdisc.stats;
  let seq = ref 0 in
  let same_packet (a : Packet.t) b = a == b in
  let same_state () =
    let a = fast.Net.Qdisc.stats and b = slow.Net.Qdisc.stats in
    fast.backlog_bytes () = slow.backlog_bytes ()
    && fast.backlog_packets () = slow.backlog_packets ()
    && a.enqueued = b.enqueued && a.dropped = b.dropped && a.dequeued = b.dequeued
    && a.bytes_dropped = b.bytes_dropped
    && List.for_all
         (fun flow -> Net.Qdisc.flow_drops a ~flow = Net.Qdisc.flow_drops b ~flow)
         [ 0; 1; 2; 3; 4; 5 ]
  in
  let step = function
    | Enqueue (flow, size) ->
        incr seq;
        let pkt = data ~flow ~size ~seq:!seq () in
        Bool.equal (fast.enqueue pkt) (slow.enqueue pkt)
    | Dequeue -> same_packet (fast.dequeue ()) (slow.dequeue ())
  in
  let rec drain () =
    let a = fast.dequeue () and b = slow.dequeue () in
    same_packet a b && (a == Packet.none || drain ())
  in
  List.for_all (fun op -> step op && same_state ()) ops && drain () && same_state ()

(* The ring FIFO vs the [Queue] one it replaced: the same packets into
   both under a 5,000-byte limit, so tail drops are frequent, with
   cross-traffic backlog (negative values included, which clamp to 0)
   and flushes mixed in. Both return the same packets in the same
   order and agree on stats and backlog after every step. *)
type fifo_op = F_enqueue of int | F_dequeue | F_cross of int | F_flush

let fifo_trace =
  let open QCheck.Gen in
  let size = frequency [ (4, return 1000); (1, oneofl [ 64; 500; 1500; 2000; 6000 ]) ] in
  let op =
    frequency
      [
        (6, map (fun size -> F_enqueue size) size);
        (4, return F_dequeue);
        (1, map (fun b -> F_cross b) (int_range (-1000) 4000));
        (1, return F_flush);
      ]
  in
  list_size (int_range 0 300) op

let show_fifo_op = function
  | F_enqueue size -> Printf.sprintf "enq %dB" size
  | F_dequeue -> "deq"
  | F_cross b -> Printf.sprintf "cross %dB" b
  | F_flush -> "flush"

let fifo_agrees ops =
  let fast = Net.Fifo.create ~limit_bytes:5000 () and slow = Ref_fifo.create ~limit_bytes:5000 () in
  let seq = ref 0 in
  let same_state () =
    let a = fast.Net.Qdisc.stats and b = slow.Net.Qdisc.stats in
    fast.backlog_bytes () = slow.backlog_bytes ()
    && fast.backlog_packets () = slow.backlog_packets ()
    && a.enqueued = b.enqueued && a.dropped = b.dropped && a.dequeued = b.dequeued
    && a.bytes_dropped = b.bytes_dropped
  in
  let step = function
    | F_enqueue size ->
        incr seq;
        let pkt = data ~size ~seq:!seq () in
        Bool.equal (fast.enqueue pkt) (slow.enqueue pkt)
    | F_dequeue -> fast.dequeue () == slow.dequeue ()
    | F_cross b ->
        fast.set_cross_backlog b;
        slow.set_cross_backlog b;
        true
    | F_flush -> Net.Qdisc.flush fast = Net.Qdisc.flush slow
  in
  let rec drain () =
    let a = fast.dequeue () and b = slow.dequeue () in
    a == b && (a == Packet.none || drain ())
  in
  List.for_all (fun op -> step op && same_state ()) ops && drain () && same_state ()

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"drr matches the reference drr" ~count:500
      (make
         ~print:(fun ops -> String.concat "; " (List.map show_drr_op ops))
         ~shrink:Shrink.list drr_trace)
      drr_agrees;
    Test.make ~name:"fifo matches the reference queue fifo" ~count:500
      (make
         ~print:(fun ops -> String.concat "; " (List.map show_fifo_op ops))
         ~shrink:Shrink.list fifo_trace)
      fifo_agrees;
  ]

(* --- Token bucket ---------------------------------------------------------------- *)

let test_token_bucket_conformance () =
  let tb = Net.Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000 ~now:0.0 in
  (* Bucket starts full: 1000 bytes pass. *)
  Alcotest.(check bool) "burst passes" true (Net.Token_bucket.try_consume tb ~now:0.0 ~bytes:1000);
  Alcotest.(check bool) "empty rejects" false (Net.Token_bucket.try_consume tb ~now:0.0 ~bytes:100);
  (* 8000 bit/s = 1000 B/s; after 0.5 s there are 500 bytes. *)
  Alcotest.(check bool) "refilled" true (Net.Token_bucket.try_consume tb ~now:0.5 ~bytes:500)

let test_token_bucket_cap () =
  let tb = Net.Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000 ~now:0.0 in
  ignore (Net.Token_bucket.try_consume tb ~now:0.0 ~bytes:1000);
  (* Long idle: tokens cap at the burst size. *)
  check_float "capped" 1000.0 (Net.Token_bucket.tokens tb ~now:100.0)

let test_token_bucket_wait_time () =
  let tb = Net.Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000 ~now:0.0 in
  ignore (Net.Token_bucket.try_consume tb ~now:0.0 ~bytes:1000);
  check_float "wait for 250 bytes" 0.25
    (Net.Token_bucket.time_until_available tb ~now:0.0 ~bytes:250);
  Alcotest.check_raises "oversized request"
    (Invalid_argument "Token_bucket.time_until_available: request exceeds burst size") (fun () ->
      ignore (Net.Token_bucket.time_until_available tb ~now:0.0 ~bytes:2000))

(* --- Shaper / Policer ---------------------------------------------------------------- *)

let test_shaper_limits_rate () =
  let sim = Sim.create () in
  let received = ref 0 in
  let shaper =
    Net.Shaper.create sim ~rate_bps:80_000.0 (* 10 kB/s *) ~burst_bytes:1000
      ~limit_bytes:1_000_000
      ~sink:(fun pkt -> received := !received + pkt.Packet.size_bytes)
      ()
  in
  (* Offer 50 kB instantly; after 2 s only burst + 2 s x 10 kB/s should
     have passed. *)
  for i = 0 to 49 do
    Net.Shaper.input shaper (data ~seq:i ~size:1000 ())
  done;
  Sim.run ~until:2.0 sim;
  Alcotest.(check bool) "rate enforced" true (!received <= 21_100 && !received >= 19_000);
  Sim.run ~until:10.0 sim;
  Alcotest.(check int) "eventually all delivered" 50_000 !received;
  Alcotest.(check int) "nothing dropped" 0 (Net.Shaper.dropped shaper)

let test_shaper_drops_over_limit () =
  let sim = Sim.create () in
  let shaper =
    Net.Shaper.create sim ~rate_bps:8_000.0 ~burst_bytes:500 ~limit_bytes:2000
      ~sink:(fun _ -> ())
      ()
  in
  for i = 0 to 9 do
    Net.Shaper.input shaper (data ~seq:i ~size:1000 ())
  done;
  Alcotest.(check bool) "drops beyond queue limit" true (Net.Shaper.dropped shaper > 0)

let test_policer_drops_excess () =
  let sim = Sim.create () in
  let passed = ref 0 in
  let policer =
    Net.Policer.create sim ~rate_bps:80_000.0 ~burst_bytes:2000
      ~sink:(fun _ -> incr passed)
      ()
  in
  for i = 0 to 9 do
    Net.Policer.input policer (data ~seq:i ~size:1000 ())
  done;
  Alcotest.(check int) "burst passes" 2 !passed;
  Alcotest.(check int) "rest dropped" 8 (Net.Policer.dropped policer)

(* --- Link -------------------------------------------------------------------------- *)

let test_link_serialization_and_delay () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Net.Link.create sim ~rate_bps:8_000.0 (* 1000 B/s *) ~delay_s:0.5
      ~sink:(fun pkt -> arrivals := (Sim.now sim, pkt.Packet.seq) :: !arrivals)
      ()
  in
  Net.Link.send link (data ~seq:1 ~size:1000 ());
  Net.Link.send link (data ~seq:2 ~size:1000 ());
  Sim.run sim;
  (* First packet: 1 s serialization + 0.5 s propagation = 1.5 s.
     Second: starts serializing at 1 s, arrives 2.5 s. *)
  Alcotest.(check (list (pair (float 1e-9) int)))
    "timing" [ (1.5, 1); (2.5, 2) ] (List.rev !arrivals)

let test_link_utilization () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:8_000.0 ~delay_s:0.0 ~sink:(fun _ -> ()) () in
  Net.Link.send link (data ~size:1000 ());
  Sim.run ~until:2.0 sim;
  check_float "busy half the time" 0.5 (Net.Link.utilization link ~now:2.0);
  Alcotest.(check int) "delivered" 1000 (Net.Link.bytes_delivered link)

let test_link_rate_change () =
  let sim = Sim.create () in
  let arrivals = ref [] in
  let link =
    Net.Link.create sim ~rate_bps:8_000.0 ~delay_s:0.0
      ~sink:(fun pkt -> arrivals := (Sim.now sim, pkt.Packet.seq) :: !arrivals)
      ()
  in
  Net.Link.send link (data ~seq:1 ~size:1000 ());
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         Net.Link.set_rate link 16_000.0;
         Net.Link.send link (data ~seq:2 ~size:1000 ())));
  Sim.run sim;
  Alcotest.(check (list (pair (float 1e-9) int)))
    "second packet at doubled rate" [ (1.0, 1); (1.5, 2) ] (List.rev !arrivals)

(* A NaN passes a [x <= 0.0] or [x < 0.0] guard; let in, it surfaced
   only at the first transmission or delivery, as a NaN delay the
   engine refused. Each entry point now refuses it, naming Link. *)
let test_link_create_refuses_nan () =
  let sim = Sim.create () in
  Alcotest.check_raises "NaN rate" (Invalid_argument "Link.create: rate must be positive")
    (fun () -> ignore (Net.Link.create sim ~rate_bps:Float.nan ~delay_s:0.01 ~sink:ignore ()));
  Alcotest.check_raises "NaN delay" (Invalid_argument "Link.create: negative delay") (fun () ->
      ignore (Net.Link.create sim ~rate_bps:1e6 ~delay_s:Float.nan ~sink:ignore ()))

let test_link_set_rate_refuses_nan () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:1e6 ~delay_s:0.01 ~sink:ignore () in
  Alcotest.check_raises "NaN rate" (Invalid_argument "Link.set_rate: rate must be positive")
    (fun () -> Net.Link.set_rate link Float.nan);
  Alcotest.(check (float 0.0)) "the rate is unchanged" 1e6 (Net.Link.rate_bps link)

let test_link_cross_rate_refuses_nan () =
  let sim = Sim.create () in
  let link = Net.Link.create sim ~rate_bps:1e6 ~delay_s:0.01 ~sink:ignore () in
  Alcotest.check_raises "NaN cross rate"
    (Invalid_argument "Link.set_cross_rate_bps: negative rate") (fun () ->
      Net.Link.set_cross_rate_bps link [| Float.nan |]);
  Alcotest.(check (float 0.0)) "the cross rate is unchanged" 0.0 (Net.Link.cross_rate_bps link)

(* --- Dispatch ------------------------------------------------------------------------ *)

let test_dispatch_routes_by_flow () =
  let d = Net.Dispatch.create () in
  let got = ref [] in
  Net.Dispatch.register d ~flow:1 (fun pkt -> got := (1, pkt.Packet.seq) :: !got);
  Net.Dispatch.register d ~flow:2 (fun pkt -> got := (2, pkt.Packet.seq) :: !got);
  Net.Dispatch.deliver d (data ~flow:2 ~seq:7 ());
  Net.Dispatch.deliver d (data ~flow:1 ~seq:9 ());
  Net.Dispatch.deliver d (data ~flow:3 ~seq:0 ());
  Alcotest.(check (list (pair int int))) "routed" [ (2, 7); (1, 9) ] (List.rev !got);
  Alcotest.(check int) "unmatched counted" 1 (Net.Dispatch.unmatched d)

let test_dispatch_double_register_rejected () =
  let d = Net.Dispatch.create () in
  Net.Dispatch.register d ~flow:1 (fun _ -> ());
  Alcotest.check_raises "duplicate flow"
    (Invalid_argument "Dispatch.register: flow already registered") (fun () ->
      Net.Dispatch.register d ~flow:1 (fun _ -> ()))

let test_dispatch_unregister_unmatched () =
  let d = Net.Dispatch.create () and got = ref 0 in
  Net.Dispatch.register d ~flow:4 (fun _ -> incr got);
  Net.Dispatch.deliver d (data ~flow:4 ());
  Net.Dispatch.unregister d ~flow:4;
  Net.Dispatch.deliver d (data ~flow:4 ());
  Alcotest.(check (pair int int)) "delivered, then unmatched" (1, 1) (!got, Net.Dispatch.unmatched d)

let test_dispatch_reregister () =
  let d = Net.Dispatch.create () and got = ref 0 in
  Net.Dispatch.register d ~flow:4 (fun _ -> got := !got + 1);
  Net.Dispatch.unregister d ~flow:4;
  Net.Dispatch.register d ~flow:4 (fun _ -> got := !got + 10);
  Net.Dispatch.deliver d (data ~flow:4 ());
  Alcotest.(check (pair int int)) "second handler only" (10, 0) (!got, Net.Dispatch.unmatched d)

let test_dispatch_large_id () =
  let d = Net.Dispatch.create () and got = ref 0 in
  Net.Dispatch.register d ~flow:1 (fun _ -> got := !got + 1);
  Net.Dispatch.register d ~flow:5_000 (fun _ -> got := !got + 10);
  List.iter (fun flow -> Net.Dispatch.deliver d (data ~flow ())) [ 5_000; 1; 4_999; 1_000_000 ];
  Alcotest.(check (pair int int)) "both handlers; empty slot and id past the table unmatched"
    (11, 2) (!got, Net.Dispatch.unmatched d)

let test_dispatch_negative_id_rejected () =
  Alcotest.check_raises "negative flow" (Invalid_argument "Dispatch.register: negative flow id")
    (fun () -> Net.Dispatch.register (Net.Dispatch.create ()) ~flow:(-1) (fun _ -> ()))

(* --- Topology ---------------------------------------------------------------------------- *)

let test_topology_end_to_end_delivery () =
  let sim = Sim.create () in
  let topo = Net.Topology.dumbbell sim ~rate_bps:1e6 ~delay_s:0.01 () in
  let got = ref 0 in
  Net.Dispatch.register topo.fwd_dispatch ~flow:0 (fun _ -> incr got);
  (topo.fwd_entry ~flow:0) (data ~flow:0 ());
  Sim.run sim;
  Alcotest.(check int) "delivered through dumbbell" 1 !got

let test_topology_rtt () =
  check_float "base rtt" 0.07
    (let sim = Sim.create () in
     let topo =
       Net.Topology.dumbbell sim ~rate_bps:1e6 ~delay_s:0.03 ~edge_delay:(fun _ -> 0.005) ()
     in
     Net.Topology.base_rtt topo ~flow:0)

let test_topology_policer_ingress () =
  let sim = Sim.create () in
  let topo =
    Net.Topology.dumbbell sim ~rate_bps:1e7 ~delay_s:0.001
      ~ingress:(fun _ -> Net.Topology.Police { rate_bps = 80_000.0; burst_bytes = 2000 })
      ()
  in
  let got = ref 0 in
  Net.Dispatch.register topo.fwd_dispatch ~flow:0 (fun _ -> incr got);
  for i = 0 to 9 do
    (topo.fwd_entry ~flow:0) (data ~flow:0 ~seq:i ~size:1000 ())
  done;
  Sim.run sim;
  Alcotest.(check int) "only the burst passes the policer" 2 !got

(* --- per-packet allocation ------------------------------------------------------ *)

(* Words allocated per delivered packet, minor plus direct major, by
   one 100 Mbit/s link with 100 ms of propagation and the given qdisc,
   kept 800 packets deep in flight over [flows] flows: each delivered
   packet is sent again, so no packet is built in the measured window
   and the packets ride the delay line in the steady state. The window
   is the second after a half-second warmup. *)
let hop_words ~qdisc ~flows ~in_flight =
  let sim = Sim.create () in
  let delivered = ref 0 in
  let rec link =
    lazy
      (Net.Link.create sim ~rate_bps:(U.Units.mbps 100.0) ~delay_s:0.1 ~qdisc
         ~sink:(fun pkt ->
           incr delivered;
           Net.Link.send (Lazy.force link) pkt)
         ())
  in
  let link = Lazy.force link in
  for seq = 1 to in_flight do
    Net.Link.send link (data ~flow:(seq mod flows) ~seq ~size:1500 ())
  done;
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Sim.run ~until:0.5 sim;
  let delivered0 = !delivered and words0 = words () in
  Sim.run ~until:1.5 sim;
  let packets = !delivered - delivered0 in
  Alcotest.(check bool) (Printf.sprintf "the window ran (%d packets)" packets) true (packets > 7000);
  Alcotest.(check bool)
    (Printf.sprintf "packets in flight (%d pending events)" (Sim.pending sim))
    true
    (Sim.pending sim > 700);
  (words () -. words0) /. float_of_int packets

(* Through a FIFO a hop allocates nothing: the window reads 0.06 words
   per packet in the dev profile, the measurement's own [Gc.counters]
   calls. It was 11.0 while the FIFO pushed a queue cell, dequeue
   returned an option and the serialization time crossed into the
   engine as a boxed float; 23 while the engine also boxed each event's
   time, and 38 with a closure per serialization and one per
   propagation. *)
let test_link_packet_allocation () =
  let per_packet =
    hop_words ~qdisc:(Net.Fifo.create ~limit_bytes:10_000_000 ()) ~flows:1 ~in_flight:800
  in
  Alcotest.(check bool)
    (Printf.sprintf "under 1 word per delivered packet (%.2f)" per_packet)
    true (per_packet < 1.0)

(* The same hop through DRR, 1,000 packets in flight over four flows so
   a queue stands and deficits carry over: its queues and its round are
   rings and a flow's deficit sits in an unboxed slot, so it reads 0.06
   words per packet too. With a [Queue] per flow and round, an option
   per [current] flow and a boxed deficit it read 24.1. *)
let test_drr_hop_allocation () =
  let per_packet =
    hop_words ~qdisc:(Net.Drr.create ~limit_bytes:10_000_000 ()) ~flows:4 ~in_flight:1000
  in
  Alcotest.(check bool)
    (Printf.sprintf "under 1 word per delivered packet (%.2f)" per_packet)
    true (per_packet < 1.0)

(* --- promotion ------------------------------------------------------------------- *)

(* Words promoted per packet while a qdisc holds 8 packets and each
   step enqueues one fresh packet and dequeues one. The full major
   collection first moves the qdisc's storage into the major heap, as
   in a long run. A [Queue]'s tail cell there puts its [next] field in
   the remembered set, so every later cell, and the packet it holds, is
   promoted at the next minor collection though it left long before:
   16.98 words per packet through the [Queue] FIFO and 18.75 through
   the [Queue] DRR (every packet and cell). A ring clears each dequeued
   slot, so only the packets still queued at a minor collection are
   promoted: about 0.01 words per packet. *)
let promoted_words_per_packet (q : Net.Qdisc.t) ~flows =
  for seq = 1 to 8 do
    ignore (q.enqueue (data ~flow:(seq mod flows) ~seq ()))
  done;
  Gc.full_major ();
  let promoted () =
    let _, promoted, _ = Gc.counters () in
    promoted
  in
  let packets = 200_000 in
  let p0 = promoted () in
  for seq = 9 to packets + 8 do
    ignore (q.enqueue (data ~flow:(seq mod flows) ~seq ()));
    ignore (q.dequeue ())
  done;
  Alcotest.(check int) "8 still queued" 8 (q.backlog_packets ());
  (promoted () -. p0) /. float_of_int packets

(* A qdisc keeps no reference to a packet that left: 100 packets go in
   and out, and a full major collection then frees every one. A ring
   that did not clear a dequeued slot would keep them until the slot
   was next written. *)
let test_departed_not_retained () =
  List.iter
    (fun (name, (q : Net.Qdisc.t)) ->
      let seen = Weak.create 100 in
      for seq = 0 to 99 do
        let pkt = data ~flow:(seq mod 4) ~seq () in
        Weak.set seen seq (Some pkt);
        ignore (q.enqueue pkt)
      done;
      while q.dequeue () != Packet.none do
        ()
      done;
      Gc.full_major ();
      let kept = List.length (List.filter (Weak.check seen) (List.init 100 Fun.id)) in
      Alcotest.(check int) (name ^ ": departed packets kept") 0 kept)
    [ ("fifo", Net.Fifo.create ()); ("drr", Net.Drr.create ()) ]

let test_departed_never_promoted () =
  List.iter
    (fun (name, q, flows) ->
      let per_packet = promoted_words_per_packet q ~flows in
      Alcotest.(check bool)
        (Printf.sprintf "%s: under 1 promoted word per packet (%.3f)" name per_packet)
        true (per_packet < 1.0))
    [
      ("fifo", Net.Fifo.create (), 1);
      ("drr, four flows", Net.Drr.create (), 4);
    ]

let suite =
  [
    ("packet: unique uids", `Quick, test_packet_uids_unique);
    ("packet: sizes and kinds", `Quick, test_packet_sizes);
    ("fifo: order and backlog", `Quick, test_fifo_order_and_backlog);
    ("fifo: drop tail", `Quick, test_fifo_drop_tail);
    ("drr: round robin", `Quick, test_drr_round_robin);
    ("drr: equal byte service", `Quick, test_drr_fair_bytes);
    ("drr: weighted service", `Quick, test_drr_weights);
    ("drr: longest-queue drop", `Quick, test_drr_longest_queue_drop);
    ("drr: rejects a NaN weight", `Quick, test_drr_rejects_nan_weight);
    ("drr: serves a flow a drop emptied", `Quick, test_drr_serves_flow_emptied_by_drop);
    ("token bucket: conformance", `Quick, test_token_bucket_conformance);
    ("token bucket: burst cap", `Quick, test_token_bucket_cap);
    ("token bucket: wait time", `Quick, test_token_bucket_wait_time);
    ("shaper: enforces rate then delivers all", `Quick, test_shaper_limits_rate);
    ("shaper: drops over queue limit", `Quick, test_shaper_drops_over_limit);
    ("policer: drops excess", `Quick, test_policer_drops_excess);
    ("link: serialization + propagation", `Quick, test_link_serialization_and_delay);
    ("link: utilization accounting", `Quick, test_link_utilization);
    ("link: mid-run rate change", `Quick, test_link_rate_change);
    ("link: create refuses a NaN rate or delay", `Quick, test_link_create_refuses_nan);
    ("link: set_rate refuses NaN", `Quick, test_link_set_rate_refuses_nan);
    ("link: set_cross_rate_bps refuses NaN", `Quick, test_link_cross_rate_refuses_nan);
    ("dispatch: routes by flow", `Quick, test_dispatch_routes_by_flow);
    ("dispatch: duplicate rejected", `Quick, test_dispatch_double_register_rejected);
    ("topology: end-to-end delivery", `Quick, test_topology_end_to_end_delivery);
    ("topology: base rtt", `Quick, test_topology_rtt);
    ("topology: policer ingress", `Quick, test_topology_policer_ingress);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
  @ [
      ("link: per-packet allocation budget", `Quick, test_link_packet_allocation);
      ("drr: per-packet hop allocation budget", `Quick, test_drr_hop_allocation);
      ("qdisc: a departed packet is never promoted", `Quick, test_departed_never_promoted);
      ("qdisc: a departed packet is not retained", `Quick, test_departed_not_retained);
      ("dispatch: deliver after unregister is unmatched", `Quick,
        test_dispatch_unregister_unmatched);
      ("dispatch: register again after unregister", `Quick, test_dispatch_reregister);
      ("dispatch: id past the initial capacity", `Quick, test_dispatch_large_id);
      ("dispatch: negative id refused", `Quick, test_dispatch_negative_id_rejected);
      ("drr: large flow ids served, negative refused", `Quick, test_drr_flow_ids);
    ]
