type flow_state = {
  id : int;
  queue : Packet.t Ring.t;
  deficit : float array;
      (* one unboxed slot: a mutable float field in this mixed record
         would box on every dequeue *)
  mutable queued_bytes : int;
  mutable active : bool;
  weight : float;
}

let default_quantum = Ccsim_util.Units.mss + Ccsim_util.Units.header_bytes

let fresh_flow_state id weight =
  {
    id;
    queue = Ring.create ~filler:Packet.none;
    deficit = [| 0.0 |];
    queued_bytes = 0;
    active = false;
    weight;
  }

let create ?(quantum_bytes = default_quantum) ?(limit_bytes = Fifo.default_limit_bytes)
    ?(weight_of_flow = fun _ -> 1.0) () =
  if quantum_bytes <= 0 then invalid_arg "Drr.create: quantum must be positive";
  if limit_bytes <= 0 then invalid_arg "Drr.create: limit must be positive";
  (* Per-flow state sits in an array indexed by flow id, as Dispatch's
     handlers do, so an enqueue finds it with one bounds check and one
     load, with no hashing. [absent] fills the empty slots of that
     array and of the round, and stands for "no flow" in [current]; it
     is recognised by physical equality and never written. *)
  let absent = fresh_flow_state (-1) 1.0 in
  let flows = ref (Array.make 16 absent) in
  let active = Ring.create ~filler:absent in
  let total_bytes = ref 0 in
  let total_packets = ref 0 in
  let stats = Qdisc.make_stats () in
  let add_flow flow =
    if flow < 0 then invalid_arg (Printf.sprintf "Drr: negative flow id %d" flow);
    let weight = weight_of_flow flow in
    (* Rejects NaN too: a NaN deficit never covers a packet, so
       dequeue would spin forever on that flow. *)
    if not (weight > 0.0) then invalid_arg "Drr: flow weight must be positive";
    let n = Array.length !flows in
    if flow >= n then begin
      let size = ref n in
      while !size <= flow do
        size := 2 * !size
      done;
      let grown = Array.make !size absent in
      Array.blit !flows 0 grown 0 n;
      flows := grown
    end;
    let fs = fresh_flow_state flow weight in
    !flows.(flow) <- fs;
    fs
  in
  let flow_state flow =
    let a = !flows in
    if flow >= 0 && flow < Array.length a && a.(flow) != absent then a.(flow) else add_flow flow
  in
  (* [current] is the flow being served (see [dequeue] below), [absent]
     between turns. Every backlogged flow is either [current] or
     waiting in [active]. *)
  let current = ref absent in
  (* Longest-queue-drop: evict one packet from the fullest flow queue,
     the lowest flow id among equals, so the choice never depends on
     round order. *)
  let pick best fs =
    if fs.queued_bytes = 0 then best
    else if
      best == absent
      || fs.queued_bytes > best.queued_bytes
      || (fs.queued_bytes = best.queued_bytes && fs.id < best.id)
    then fs
    else best
  in
  let drop_from_longest () =
    let fs = Ring.fold pick (pick absent !current) active in
    if fs != absent then begin
      (* Drop from the tail. *)
      let pkt = Ring.pop_newest fs.queue in
      fs.queued_bytes <- fs.queued_bytes - pkt.Packet.size_bytes;
      total_bytes := !total_bytes - pkt.Packet.size_bytes;
      decr total_packets;
      Qdisc.drop stats pkt
    end
  in
  let[@ccsim.hot] enqueue (pkt : Packet.t) =
    let fs = flow_state pkt.flow in
    if !total_bytes + pkt.size_bytes > limit_bytes then drop_from_longest ();
    if !total_bytes + pkt.size_bytes > limit_bytes then begin
      (* Still over (e.g. a single huge packet): drop the arrival. *)
      Qdisc.drop stats pkt;
      false
    end
    else begin
      Ring.push fs.queue pkt;
      fs.queued_bytes <- fs.queued_bytes + pkt.size_bytes;
      total_bytes := !total_bytes + pkt.size_bytes;
      incr total_packets;
      stats.enqueued <- stats.enqueued + 1;
      if not fs.active then begin
        fs.active <- true;
        fs.deficit.(0) <- 0.0;
        Ring.push active fs
      end;
      true
    end
  in
  let retire fs =
    fs.active <- false;
    fs.deficit.(0) <- 0.0;
    current := absent
  in
  (* Classic DRR: when a flow reaches the head of the round it earns one
     quantum (scaled by its weight) and is served for as long as its
     deficit covers the head packet — across successive dequeue calls —
     before the round moves on. *)
  let[@ccsim.hot] serve fs =
    let pkt = Ring.pop fs.queue in
    fs.deficit.(0) <- fs.deficit.(0) -. float_of_int pkt.Packet.size_bytes;
    fs.queued_bytes <- fs.queued_bytes - pkt.size_bytes;
    total_bytes := !total_bytes - pkt.size_bytes;
    decr total_packets;
    stats.dequeued <- stats.dequeued + 1;
    if Ring.is_empty fs.queue then retire fs;
    pkt
  in
  let[@ccsim.hot] rec dequeue () =
    let fs = !current in
    if !total_packets = 0 then begin
      (* A drop can empty the served flow's queue; retire it from the
         round here too, or a later arrival would find it marked active
         yet in no round. *)
      if fs != absent then retire fs;
      Packet.none
    end
    else if fs != absent then begin
      let head = Ring.peek fs.queue in
      if head == Packet.none then begin
        retire fs;
        dequeue ()
      end
      else if float_of_int head.Packet.size_bytes <= fs.deficit.(0) then serve fs
      else begin
        (* Deficit exhausted: back of the round, keep the residue. *)
        Ring.push active fs;
        current := absent;
        dequeue ()
      end
    end
    else begin
      let fs = Ring.pop active in
      if fs == absent then Packet.none
      else if Ring.is_empty fs.queue then begin
        fs.active <- false;
        dequeue ()
      end
      else begin
        fs.deficit.(0) <- fs.deficit.(0) +. (float_of_int quantum_bytes *. fs.weight);
        current := fs;
        dequeue ()
      end
    end
  in
  {
    Qdisc.name = "drr";
    enqueue;
    dequeue;
    backlog_bytes = (fun () -> !total_bytes);
    backlog_packets = (fun () -> !total_packets);
    set_cross_backlog = Qdisc.ignore_cross_backlog;
    stats;
  }
