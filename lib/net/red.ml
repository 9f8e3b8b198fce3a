let full_packet = Ccsim_util.Units.mss + Ccsim_util.Units.header_bytes

let create ?(min_th_bytes = 30 * full_packet) ?(max_th_bytes = 90 * full_packet) ?(max_p = 0.1)
    ?(weight = 0.002) ?(limit_bytes = Fifo.default_limit_bytes) () =
  if min_th_bytes >= max_th_bytes then invalid_arg "Red.create: requires min_th < max_th";
  if max_p <= 0.0 || max_p > 1.0 then invalid_arg "Red.create: max_p must be in (0,1]";
  if weight <= 0.0 || weight > 1.0 then invalid_arg "Red.create: weight must be in (0,1]";
  let queue : Packet.t Queue.t = Queue.create () in
  let bytes = ref 0 in
  (* Shared-buffer occupancy held by a fluid aggregate (hybrid mode);
     feeds the average-queue signal and the hard limit like real
     occupancy would, but is never dequeued here. *)
  let cross = ref 0 in
  let avg = ref 0.0 in
  let count_since_drop = ref (-1) in
  let stats = Qdisc.make_stats () in
  (* Deterministic pseudo-random sequence for drop decisions: the qdisc
     owns its own stream so runs stay reproducible. *)
  let rng = Ccsim_util.Rng.create 0x5ED in
  let admit (pkt : Packet.t) =
    Queue.push pkt queue;
    bytes := !bytes + pkt.size_bytes;
    stats.enqueued <- stats.enqueued + 1;
    true
  in
  let drop (pkt : Packet.t) =
    Qdisc.drop stats pkt;
    false
  in
  let enqueue (pkt : Packet.t) =
    avg := ((1.0 -. weight) *. !avg) +. (weight *. float_of_int (!bytes + !cross));
    if !bytes + !cross + pkt.size_bytes > limit_bytes then drop pkt
    else if !avg < float_of_int min_th_bytes then begin
      count_since_drop := -1;
      admit pkt
    end
    else if !avg >= float_of_int max_th_bytes then begin
      count_since_drop := 0;
      drop pkt
    end
    else begin
      incr count_since_drop;
      let frac =
        (!avg -. float_of_int min_th_bytes) /. float_of_int (max_th_bytes - min_th_bytes)
      in
      let pb = max_p *. frac in
      let pa =
        let denom = 1.0 -. (float_of_int !count_since_drop *. pb) in
        if denom <= 0.0 then 1.0 else pb /. denom
      in
      if Ccsim_util.Rng.bernoulli rng ~p:pa then begin
        count_since_drop := 0;
        drop pkt
      end
      else admit pkt
    end
  in
  let dequeue () =
    match Queue.take_opt queue with
    | None -> None
    | Some pkt ->
        bytes := !bytes - pkt.size_bytes;
        stats.dequeued <- stats.dequeued + 1;
        Some pkt
  in
  {
    Qdisc.name = "red";
    enqueue;
    dequeue;
    backlog_bytes = (fun () -> !bytes);
    backlog_packets = (fun () -> Queue.length queue);
    set_cross_backlog = (fun b -> cross := Int.max 0 b);
    stats;
  }
