(* Test-only reference: the sender's previous scoreboard, a queue of
   segment records swept whole on every ack. [process_sacks],
   [retire_acked], [detect_losses], [mark_lost]/[remove_from_pipe], the
   RTO sweep and the next-lost scan are the old Sender code verbatim,
   taking as arguments what they used to read from the sender; the
   segment record gained an [index] to answer to the indexed
   scoreboard's interface. test_tcp.ml checks Ccsim_tcp.Scoreboard
   against it. *)

type segment = {
  index : int;
  seq : int;
  len : int;
  mutable sent_at : float;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;  (* marked for retransmission *)
  mutable in_pipe : bool;  (* counted in the outstanding estimate *)
}

type t = {
  mss : int;
  segments : segment Queue.t;  (* in flight, ascending seq *)
  mutable next_index : int;
  mutable pipe_bytes : int;  (* SACK-aware outstanding estimate *)
  mutable lost_bytes : int;  (* marked lost, not yet retransmitted *)
  mutable highest_sacked : int;
  mutable newest_delivered_sent_at : float;
  mutable delivered_bytes : int;
}

let create ~mss =
  {
    mss;
    segments = Queue.create ();
    next_index = 0;
    pipe_bytes = 0;
    lost_bytes = 0;
    highest_sacked = 0;
    newest_delivered_sent_at = neg_infinity;
    delivered_bytes = 0;
  }

let pipe_bytes t = t.pipe_bytes
let lost_bytes t = t.lost_bytes
let delivered_bytes t = t.delivered_bytes
let highest_sacked t = t.highest_sacked
let newest_delivered_sent_at t = t.newest_delivered_sent_at
let head t = if Queue.is_empty t.segments then t.next_index else (Queue.peek t.segments).index
let tail t = t.next_index

let find fn t i =
  match Queue.fold (fun found seg -> if seg.index = i then Some seg else found) None t.segments with
  | Some seg -> seg
  | None -> invalid_arg (fn ^ ": segment not on the board")

let seq t i = (find "Ref_scoreboard.seq" t i).seq
let len t i = (find "Ref_scoreboard.len" t i).len
let sacked t i = (find "Ref_scoreboard.sacked" t i).sacked
let lost t i = (find "Ref_scoreboard.lost" t i).lost
let in_pipe t i = (find "Ref_scoreboard.in_pipe" t i).in_pipe

let remove_from_pipe t seg =
  if seg.in_pipe then begin
    seg.in_pipe <- false;
    t.pipe_bytes <- t.pipe_bytes - seg.len
  end

let mark_lost t seg =
  if (not seg.lost) && not seg.sacked then begin
    seg.lost <- true;
    t.lost_bytes <- t.lost_bytes + seg.len;
    remove_from_pipe t seg
  end

(* The scoreboard half of the old [Sender.transmit]. *)
let transmit t seg ~now ~is_retx =
  seg.sent_at <- now;
  seg.in_pipe <- true;
  t.pipe_bytes <- t.pipe_bytes + seg.len;
  if is_retx then seg.retx_count <- seg.retx_count + 1

let send t ~seq ~len ~now =
  let seg =
    {
      index = t.next_index;
      seq;
      len;
      sent_at = now;
      retx_count = 0;
      sacked = false;
      lost = false;
      in_pipe = false;
    }
  in
  Queue.push seg t.segments;
  t.next_index <- t.next_index + 1;
  transmit t seg ~now ~is_retx:false

let retransmit t i ~now =
  let seg = find "Ref_scoreboard.retransmit" t i in
  if not seg.lost then invalid_arg "Ref_scoreboard.retransmit: segment not marked lost";
  seg.lost <- false;
  t.lost_bytes <- t.lost_bytes - seg.len;
  transmit t seg ~now ~is_retx:true

let detect_losses t ~now ~srtt =
  let reorder_window = if srtt > 0.0 then 1.5 *. srtt else 0.1 in
  Queue.iter
    (fun seg ->
      if (not seg.sacked) && not seg.lost then begin
        if seg.retx_count = 0 && seg.seq + seg.len + (3 * t.mss) <= t.highest_sacked then
          mark_lost t seg
        else if
          seg.sent_at < t.newest_delivered_sent_at && now -. seg.sent_at > reorder_window
        then
          mark_lost t seg
      end)
    t.segments

let next_lost_segment t =
  if t.lost_bytes = 0 then -1
  else begin
    let found = ref (-1) in
    (try
       Queue.iter
         (fun seg ->
           if seg.lost then begin
             found := seg.index;
             raise Exit
           end)
         t.segments
     with Exit -> ());
    !found
  end

let process_sacks t sacks =
  List.iter
    (fun (lo, hi) ->
      if hi > t.highest_sacked then t.highest_sacked <- hi;
      Queue.iter
        (fun seg ->
          if (not seg.sacked) && seg.seq >= lo && seg.seq + seg.len <= hi then begin
            seg.sacked <- true;
            t.delivered_bytes <- t.delivered_bytes + seg.len;
            if seg.sent_at > t.newest_delivered_sent_at then
              t.newest_delivered_sent_at <- seg.sent_at;
            if seg.lost then begin
              seg.lost <- false;
              t.lost_bytes <- t.lost_bytes - seg.len
            end;
            remove_from_pipe t seg
          end)
        t.segments)
    sacks

let rec retire_acked t ~snd_una =
  if not (Queue.is_empty t.segments) then begin
    let seg = Queue.peek t.segments in
    if seg.seq + seg.len <= snd_una then begin
      ignore (Queue.pop t.segments);
      remove_from_pipe t seg;
      if not seg.sacked then t.delivered_bytes <- t.delivered_bytes + seg.len;
      if seg.sent_at > t.newest_delivered_sent_at then
        t.newest_delivered_sent_at <- seg.sent_at;
      if seg.lost then begin
        seg.lost <- false;
        t.lost_bytes <- t.lost_bytes - seg.len
      end;
      retire_acked t ~snd_una
    end
  end

(* The duplicate-ack fallback from the old [Sender.handle_ack]. *)
let mark_head_lost t =
  if not (Queue.is_empty t.segments) then begin
    let seg = Queue.peek t.segments in
    if (not seg.sacked) && seg.retx_count = 0 then mark_lost t seg
  end

(* The old [Sender.on_rto] sweep. *)
let mark_all_lost t = Queue.iter (fun seg -> if not seg.sacked then mark_lost t seg) t.segments
