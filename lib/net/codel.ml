type entry = { pkt : Packet.t; arrived : float }

let create ~now ?(target = 0.005) ?(interval = 0.1) () =
  let limit_bytes = Fifo.default_limit_bytes in
  if target <= 0.0 || interval <= 0.0 then invalid_arg "Codel.create: times must be positive";
  let queue : entry Queue.t = Queue.create () in
  let bytes = ref 0 in
  let stats = Qdisc.make_stats () in
  let first_above_time = ref 0.0 in
  let dropping = ref false in
  let drop_next = ref 0.0 in
  let drop_count = ref 0 in
  let enqueue (pkt : Packet.t) =
    if !bytes + pkt.size_bytes > limit_bytes then begin
      Qdisc.drop stats pkt;
      false
    end
    else begin
      Queue.push { pkt; arrived = now () } queue;
      bytes := !bytes + pkt.size_bytes;
      stats.enqueued <- stats.enqueued + 1;
      true
    end
  in
  let pop () =
    match Queue.take_opt queue with
    | None -> None
    | Some entry ->
        bytes := !bytes - entry.pkt.size_bytes;
        Some entry
  in
  (* Returns the head packet if its sojourn is acceptable, per the CoDel
     state machine; [None] signals the queue went empty. *)
  let should_drop entry t =
    let sojourn = t -. entry.arrived in
    if sojourn < target || !bytes < Ccsim_util.Units.mss then begin
      first_above_time := 0.0;
      false
    end
    else if Ccsim_util.Feq.feq ~eps:0.0 !first_above_time 0.0 then begin
      first_above_time := t +. interval;
      false
    end
    else t >= !first_above_time
  in
  let control_law t count = t +. (interval /. sqrt (float_of_int (max 1 count))) in
  let rec dequeue () =
    match pop () with
    | None ->
        dropping := false;
        None
    | Some entry ->
        let t = now () in
        let ok_to_drop = should_drop entry t in
        if !dropping then begin
          if not ok_to_drop then begin
            dropping := false;
            stats.dequeued <- stats.dequeued + 1;
            Some entry.pkt
          end
          else if t >= !drop_next then begin
            Qdisc.drop stats entry.pkt;
            incr drop_count;
            drop_next := control_law !drop_next !drop_count;
            dequeue ()
          end
          else begin
            stats.dequeued <- stats.dequeued + 1;
            Some entry.pkt
          end
        end
        else if ok_to_drop then begin
          Qdisc.drop stats entry.pkt;
          dropping := true;
          (* Restart from a count informed by recent history, as in the
             reference pseudocode. *)
          drop_count := if !drop_count > 2 then !drop_count - 2 else 1;
          drop_next := control_law t !drop_count;
          dequeue ()
        end
        else begin
          stats.dequeued <- stats.dequeued + 1;
          Some entry.pkt
        end
  in
  {
    Qdisc.name = "codel";
    enqueue;
    dequeue;
    backlog_bytes = (fun () -> !bytes);
    backlog_packets = (fun () -> Queue.length queue);
    set_cross_backlog = Qdisc.ignore_cross_backlog;
    stats;
  }
