(* Test-only reference: Ccsim_net.Drr as it was before its longest-queue
   drop stopped scanning every flow ever seen, moved here verbatim as
   the oracle test_net.ml checks the new one against. *)

open Ccsim_net

type flow_state = {
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
  let flows : (int, flow_state) Hashtbl.t = Hashtbl.create 16 in
  (* Known flow ids, ascending. Scans go through this list rather than
     Hashtbl.iter so tie-breaks never depend on hash order (ccsim-lint
     R2): among equally long queues the lowest flow id is evicted. *)
  let known_flows = ref [] in
  let active : flow_state Queue.t = Queue.create () in
  let total_bytes = ref 0 in
  let total_packets = ref 0 in
  let stats = Qdisc.make_stats () in
  let flow_state flow =
    match Hashtbl.find_opt flows flow with
    | Some fs -> fs
    | None ->
        let weight = weight_of_flow flow in
        if weight <= 0.0 then invalid_arg "Drr: flow weight must be positive";
        let fs = { queue = Queue.create (); deficit = 0.0; queued_bytes = 0; active = false; weight } in
        Hashtbl.add flows flow fs;
        known_flows := List.merge compare [ flow ] !known_flows;
        fs
  in
  (* Longest-queue-drop: evict one packet from the fullest flow queue. *)
  let drop_from_longest () =
    let longest = ref None in
    List.iter
      (fun flow ->
        let fs = Hashtbl.find flows flow in
        match !longest with
        | None -> if fs.queued_bytes > 0 then longest := Some fs
        | Some best -> if fs.queued_bytes > best.queued_bytes then longest := Some fs)
      !known_flows;
    match !longest with
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
     before the round moves on. [current] is the flow being served. *)
  let current = ref None in
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
      current := None;
      Packet.none
    end
    else begin
      match !current with
      | Some fs -> (
          match Queue.peek_opt fs.queue with
          | Some pkt when float_of_int pkt.Packet.size_bytes <= fs.deficit ->
              serve fs
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
          | None -> Packet.none
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
