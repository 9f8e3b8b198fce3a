type flow_state = {
  id : int;
  queue : Packet.t Queue.t;
  mutable deficit : float;
  mutable queued_bytes : int;
  mutable active : bool;
  weight : float;
}

let default_quantum = Ccsim_util.Units.mss + Ccsim_util.Units.header_bytes

let create ?(quantum_bytes = default_quantum) ?(limit_bytes = Fifo.default_limit_bytes)
    ?(weight_of_flow = fun _ -> 1.0) () =
  if quantum_bytes <= 0 then invalid_arg "Drr.create: quantum must be positive";
  if limit_bytes <= 0 then invalid_arg "Drr.create: limit must be positive";
  (* Per-flow state sits in an array indexed by flow id, as Dispatch's
     handlers do, so an enqueue finds it with one bounds check and one
     load, with no hashing. Empty slots hold [absent], recognised by
     physical equality. *)
  let absent =
    { id = -1; queue = Queue.create (); deficit = 0.0; queued_bytes = 0; active = false; weight = 1.0 }
  in
  let flows = ref (Array.make 16 absent) in
  let active : flow_state Queue.t = Queue.create () in
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
    let fs =
      { id = flow; queue = Queue.create (); deficit = 0.0; queued_bytes = 0; active = false; weight }
    in
    !flows.(flow) <- fs;
    fs
  in
  let flow_state flow =
    let a = !flows in
    if flow >= 0 && flow < Array.length a && a.(flow) != absent then a.(flow) else add_flow flow
  in
  (* [current] is the flow being served (see [dequeue] below). Every
     backlogged flow is either [current] or waiting in [active]. *)
  let current = ref None in
  (* Longest-queue-drop: evict one packet from the fullest flow queue,
     the lowest flow id among equals, so the choice never depends on
     round or hash order. *)
  let pick best fs =
    match best with
    | None -> if fs.queued_bytes > 0 then Some fs else None
    | Some b ->
        if fs.queued_bytes > b.queued_bytes || (fs.queued_bytes = b.queued_bytes && fs.id < b.id)
        then Some fs
        else best
  in
  let drop_from_longest () =
    let served = match !current with Some fs -> pick None fs | None -> None in
    match Queue.fold pick served active with
    | None -> ()
    | Some fs -> (
        (* Drop from the tail: rebuild the queue minus its last packet. *)
        let n = Queue.length fs.queue in
        if n > 0 then begin
          let keep = Queue.create () in
          for i = 1 to n do
            let pkt = Queue.pop fs.queue in
            if i < n then Queue.push pkt keep
            else begin
              fs.queued_bytes <- fs.queued_bytes - pkt.Packet.size_bytes;
              total_bytes := !total_bytes - pkt.Packet.size_bytes;
              decr total_packets;
              Qdisc.drop stats pkt
            end
          done;
          Queue.transfer keep fs.queue
        end)
  in
  let enqueue (pkt : Packet.t) =
    let fs = flow_state pkt.flow in
    if !total_bytes + pkt.size_bytes > limit_bytes then drop_from_longest ();
    if !total_bytes + pkt.size_bytes > limit_bytes then begin
      (* Still over (e.g. a single huge packet): drop the arrival. *)
      Qdisc.drop stats pkt;
      false
    end
    else begin
      Queue.push pkt fs.queue;
      fs.queued_bytes <- fs.queued_bytes + pkt.size_bytes;
      total_bytes := !total_bytes + pkt.size_bytes;
      incr total_packets;
      stats.enqueued <- stats.enqueued + 1;
      if not fs.active then begin
        fs.active <- true;
        fs.deficit <- 0.0;
        Queue.push fs active
      end;
      true
    end
  in
  (* Classic DRR: when a flow reaches the head of the round it earns one
     quantum (scaled by its weight) and is served for as long as its
     deficit covers the head packet — across successive dequeue calls —
     before the round moves on. *)
  let serve fs =
    match Queue.pop fs.queue with
    | pkt ->
        fs.deficit <- fs.deficit -. float_of_int pkt.Packet.size_bytes;
        fs.queued_bytes <- fs.queued_bytes - pkt.size_bytes;
        total_bytes := !total_bytes - pkt.size_bytes;
        decr total_packets;
        stats.dequeued <- stats.dequeued + 1;
        if Queue.is_empty fs.queue then begin
          fs.active <- false;
          fs.deficit <- 0.0;
          current := None
        end;
        pkt
  in
  let rec dequeue () =
    if !total_packets = 0 then begin
      (* A drop can empty the served flow's queue; retire it from the
         round here too, or a later arrival would find it marked active
         yet in no round. *)
      (match !current with
      | Some fs ->
          fs.active <- false;
          fs.deficit <- 0.0
      | None -> ());
      current := None;
      None
    end
    else begin
      match !current with
      | Some fs -> (
          match Queue.peek_opt fs.queue with
          | Some pkt when float_of_int pkt.Packet.size_bytes <= fs.deficit ->
              Some (serve fs)
          | Some _ ->
              (* Deficit exhausted: back of the round, keep the residue. *)
              Queue.push fs active;
              current := None;
              dequeue ()
          | None ->
              fs.active <- false;
              fs.deficit <- 0.0;
              current := None;
              dequeue ())
      | None -> (
          match Queue.take_opt active with
          | None -> None
          | Some fs ->
              if Queue.is_empty fs.queue then begin
                fs.active <- false;
                dequeue ()
              end
              else begin
                fs.deficit <- fs.deficit +. (float_of_int quantum_bytes *. fs.weight);
                current := Some fs;
                dequeue ()
              end)
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
