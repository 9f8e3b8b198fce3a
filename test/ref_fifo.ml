(* Test-only reference: Ccsim_net.Fifo as it was while its backlog sat
   in a Stdlib.Queue, moved here verbatim as the oracle test_net.ml
   checks the ring FIFO against. Only dequeue's return type changed: it
   returns Packet.none when empty, as the qdisc interface now does. *)

open Ccsim_net

let create ?(limit_bytes = Fifo.default_limit_bytes) () =
  if limit_bytes <= 0 then invalid_arg "Fifo.create: limit_bytes must be positive";
  let queue : Packet.t Queue.t = Queue.create () in
  let bytes = ref 0 in
  (* Shared-buffer occupancy held by a fluid aggregate (hybrid mode);
     counts against the byte limit but never against the backlog. *)
  let cross = ref 0 in
  let stats = Qdisc.make_stats () in
  (match (Ccsim_obs.Scope.ambient ()).Ccsim_obs.Scope.watchdog with
  | Some w ->
      Ccsim_obs.Watchdog.register w ~component:"qdisc:fifo" ~invariant:"backlog_capacity"
        (fun () ->
          if !bytes < 0 then Some (Printf.sprintf "negative backlog: %d bytes" !bytes)
          else if !bytes > limit_bytes then
            Some (Printf.sprintf "backlog %d bytes exceeds the %d-byte limit" !bytes limit_bytes)
          else None)
  | None -> ());
  let[@ccsim.hot] enqueue (pkt : Packet.t) =
    if !bytes + !cross + pkt.size_bytes > limit_bytes then begin
      Qdisc.drop stats pkt;
      false
    end
    else begin
      (Queue.push pkt queue
      [@ccsim.alloc_ok "backlog queue cell, one per enqueued packet"]);
      bytes := !bytes + pkt.size_bytes;
      stats.enqueued <- stats.enqueued + 1;
      true
    end
  in
  let[@ccsim.hot] dequeue () =
    match Queue.take_opt queue with
    | None -> Packet.none
    | Some pkt ->
        bytes := !bytes - pkt.size_bytes;
        stats.dequeued <- stats.dequeued + 1;
        pkt
  in
  {
    Qdisc.name = "fifo";
    enqueue;
    dequeue;
    backlog_bytes = (fun () -> !bytes);
    backlog_packets = (fun () -> Queue.length queue);
    set_cross_backlog = (fun b -> cross := Int.max 0 b);
    stats;
  }
