(* Segment state lives in parallel rings indexed by absolute segment
   number (slot = number land mask), so a lookup is one mask and the
   per-ack paths store only immediates and unboxed floats. The send log
   shares the rings' power-of-two capacity. *)

let sacked_bit = 1
let lost_bit = 2
let pipe_bit = 4

type t = {
  mss : int;
  mutable mask : int;  (* ring capacity - 1 *)
  mutable seq : int array;
  mutable len : int array;
  mutable sent_at : float array;
  mutable retx : int array;  (* retransmissions so far *)
  mutable flags : Bytes.t;  (* sacked_bit lor lost_bit lor pipe_bit *)
  mutable skip : int array;
      (* an unsacked segment points at itself; a sacked one at a later
         segment no further than the next unsacked one (or [tail]) *)
  mutable head : int;
  mutable tail : int;
  mutable dup_front : int;
      (* segments below it were already judged by DupThresh; later
         verdicts cannot change, since highest_sacked only grows and
         sacked and retransmitted are permanent *)
  mutable lost_front : int;
      (* no segment in [head, lost_front) is marked lost: [mark_lost]
         lowers it, the search for the oldest lost segment raises it *)
  (* The send log: one (segment, retransmission count) entry per
     transmission, in send order, so in ascending send time. *)
  mutable log_seg : int array;
  mutable log_retx : int array;
  mutable log_head : int;
  mutable log_tail : int;
  mutable pipe_bytes : int;
  mutable lost_bytes : int;
  mutable delivered_bytes : int;
  mutable highest_sacked : int;
  newest_delivered : float array;
      (* one unboxed slot: a mutable float field in this mixed record
         would box on every store *)
}

let initial_capacity = 16

let create ~mss =
  {
    mss;
    mask = initial_capacity - 1;
    seq = Array.make initial_capacity 0;
    len = Array.make initial_capacity 0;
    sent_at = Array.make initial_capacity 0.0;
    retx = Array.make initial_capacity 0;
    flags = Bytes.make initial_capacity '\000';
    skip = Array.make initial_capacity 0;
    head = 0;
    tail = 0;
    dup_front = 0;
    lost_front = 0;
    log_seg = Array.make initial_capacity 0;
    log_retx = Array.make initial_capacity 0;
    log_head = 0;
    log_tail = 0;
    pipe_bytes = 0;
    lost_bytes = 0;
    delivered_bytes = 0;
    highest_sacked = 0;
    newest_delivered = Array.make 1 neg_infinity;
  }

let pipe_bytes t = t.pipe_bytes
let lost_bytes t = t.lost_bytes
let delivered_bytes t = t.delivered_bytes
let highest_sacked t = t.highest_sacked
let newest_delivered_sent_at t = t.newest_delivered.(0)
let head t = t.head
let tail t = t.tail

let[@inline] has t s bit = Bytes.get_uint8 t.flags s land bit <> 0
let[@inline] set t s bit = Bytes.set_uint8 t.flags s (Bytes.get_uint8 t.flags s lor bit)
let[@inline] clear t s bit = Bytes.set_uint8 t.flags s (Bytes.get_uint8 t.flags s land lnot bit)

let not_on_board fn = invalid_arg (fn ^ ": segment not on the board")

let[@inline] slot_of t fn i =
  if i < t.head || i >= t.tail then not_on_board fn;
  i land t.mask

let seq t i = t.seq.(slot_of t "Scoreboard.seq" i)
let len t i = t.len.(slot_of t "Scoreboard.len" i)
let sacked t i = has t (slot_of t "Scoreboard.sacked" i) sacked_bit
let lost t i = has t (slot_of t "Scoreboard.lost" i) lost_bit
let in_pipe t i = has t (slot_of t "Scoreboard.in_pipe" i) pipe_bit

(* Double every ring, re-slotting the live segments and log entries; a
   released board starts again at the initial capacity. *)
let[@ccsim.hot] grow t =
  (let cap' = Int.max initial_capacity (2 * (t.mask + 1)) in
   let mask' = cap' - 1 in
   let seq = Array.make cap' 0 and len = Array.make cap' 0 in
   let sent_at = Array.make cap' 0.0 and retx = Array.make cap' 0 in
   let flags = Bytes.make cap' '\000' and skip = Array.make cap' 0 in
   for i = t.head to t.tail - 1 do
     let s = i land t.mask and s' = i land mask' in
     seq.(s') <- t.seq.(s);
     len.(s') <- t.len.(s);
     sent_at.(s') <- t.sent_at.(s);
     retx.(s') <- t.retx.(s);
     Bytes.set_uint8 flags s' (Bytes.get_uint8 t.flags s);
     skip.(s') <- t.skip.(s)
   done;
   let log_seg = Array.make cap' 0 and log_retx = Array.make cap' 0 in
   for p = t.log_head to t.log_tail - 1 do
     log_seg.(p land mask') <- t.log_seg.(p land t.mask);
     log_retx.(p land mask') <- t.log_retx.(p land t.mask)
   done;
   t.seq <- seq;
   t.len <- len;
   t.sent_at <- sent_at;
   t.retx <- retx;
   t.flags <- flags;
   t.skip <- skip;
   t.log_seg <- log_seg;
   t.log_retx <- log_retx;
   t.mask <- mask')
  [@ccsim.alloc_ok "amortized ring doubling: O(log n) growth events per connection, not per ack"]

let[@ccsim.hot] log_transmission t i =
  if t.log_tail - t.log_head > t.mask then grow t;
  let p = t.log_tail land t.mask in
  t.log_seg.(p) <- i;
  t.log_retx.(p) <- t.retx.(i land t.mask);
  t.log_tail <- t.log_tail + 1

let[@ccsim.hot] remove_from_pipe t s =
  if has t s pipe_bit then begin
    clear t s pipe_bit;
    t.pipe_bytes <- t.pipe_bytes - t.len.(s)
  end

let[@ccsim.hot] mark_lost t i =
  let s = i land t.mask in
  if not (has t s (lost_bit lor sacked_bit)) then begin
    set t s lost_bit;
    t.lost_bytes <- t.lost_bytes + t.len.(s);
    if i < t.lost_front then t.lost_front <- i;
    remove_from_pipe t s
  end

let[@ccsim.hot] unmark_lost t s =
  if has t s lost_bit then begin
    clear t s lost_bit;
    t.lost_bytes <- t.lost_bytes - t.len.(s)
  end

let[@ccsim.hot] note_delivered_sent_at t s =
  if t.sent_at.(s) > t.newest_delivered.(0) then t.newest_delivered.(0) <- t.sent_at.(s)

(* An empty board holds no segment, and every send-log entry names a
   retired segment, so it is dead: drop the rings, as the receiver
   drops its range arrays when drained. Capacity 0 (mask -1) makes the
   next [send] grow them from empty. *)
let release t =
  if t.head <> t.tail then invalid_arg "Scoreboard.release: segments still on the board";
  t.mask <- -1;
  t.seq <- [||];
  t.len <- [||];
  t.sent_at <- [||];
  t.retx <- [||];
  t.flags <- Bytes.empty;
  t.skip <- [||];
  t.log_seg <- [||];
  t.log_retx <- [||];
  t.log_head <- t.log_tail

(* --- sending ------------------------------------------------------------- *)

let[@ccsim.hot] send t ~seq ~len ~now =
  if t.tail - t.head > t.mask then grow t;
  let i = t.tail in
  let s = i land t.mask in
  t.seq.(s) <- seq;
  t.len.(s) <- len;
  t.sent_at.(s) <- now;
  t.retx.(s) <- 0;
  Bytes.set_uint8 t.flags s pipe_bit;
  t.skip.(s) <- i;
  t.tail <- i + 1;
  t.pipe_bytes <- t.pipe_bytes + len;
  log_transmission t i

let[@ccsim.hot] retransmit t i ~now =
  let s = slot_of t "Scoreboard.retransmit" i in
  if not (has t s lost_bit) then invalid_arg "Scoreboard.retransmit: segment not marked lost";
  unmark_lost t s;
  t.sent_at.(s) <- now;
  set t s pipe_bit;
  t.pipe_bytes <- t.pipe_bytes + t.len.(s);
  t.retx.(s) <- t.retx.(s) + 1;
  log_transmission t i

(* --- SACK marking ---------------------------------------------------------- *)

(* First segment at or after [i] that is unsacked, or [tail]; the
   second pass points every sacked segment on the way straight at it. *)
let[@ccsim.hot] rec skip_root t i =
  if i >= t.tail then i
  else
    let next = t.skip.(i land t.mask) in
    if next = i then i else skip_root t next

let[@ccsim.hot] rec compress t i root =
  if i < root then begin
    let s = i land t.mask in
    let next = t.skip.(s) in
    t.skip.(s) <- root;
    compress t next root
  end

let[@ccsim.hot] next_unsacked t i =
  let root = skip_root t i in
  compress t i root;
  root

(* First segment in [a, b) whose seq is at least [lo], or [b]. *)
let[@ccsim.hot] rec lower_bound t lo a b =
  if a >= b then a
  else
    let m = (a + b) lsr 1 in
    if t.seq.(m land t.mask) >= lo then lower_bound t lo a m else lower_bound t lo (m + 1) b

let[@ccsim.hot] rec sack_run t i hi =
  if i < t.tail then begin
    let s = i land t.mask in
    if t.seq.(s) + t.len.(s) <= hi then begin
      set t s sacked_bit;
      t.skip.(s) <- i + 1;
      t.delivered_bytes <- t.delivered_bytes + t.len.(s);
      note_delivered_sent_at t s;
      unmark_lost t s;
      remove_from_pipe t s;
      sack_run t (next_unsacked t (i + 1)) hi
    end
  end

let[@ccsim.hot] rec process_sacks t = function
  | [] -> ()
  | (lo, hi) :: rest ->
      if hi > t.highest_sacked then t.highest_sacked <- hi;
      sack_run t (next_unsacked t (lower_bound t lo t.head t.tail)) hi;
      process_sacks t rest

(* --- cumulative acks ------------------------------------------------------------ *)

let[@ccsim.hot] rec retire_acked t ~snd_una =
  if t.head < t.tail then begin
    let s = t.head land t.mask in
    if t.seq.(s) + t.len.(s) <= snd_una then begin
      t.head <- t.head + 1;
      remove_from_pipe t s;
      if not (has t s sacked_bit) then t.delivered_bytes <- t.delivered_bytes + t.len.(s);
      note_delivered_sent_at t s;
      unmark_lost t s;
      retire_acked t ~snd_una
    end
  end

(* --- loss detection ---------------------------------------------------------------- *)

(* DupThresh. Segment ends ascend, so the frontier stops at the first
   segment still short of three MSS below the highest SACK. *)
let[@ccsim.hot] rec dup_thresh t i =
  let s = i land t.mask in
  if i < t.tail && t.seq.(s) + t.len.(s) + (3 * t.mss) <= t.highest_sacked then begin
    if t.retx.(s) = 0 then mark_lost t i;
    dup_thresh t (i + 1)
  end
  else t.dup_front <- i

(* RACK, over the send log. An entry is dead once its segment is
   retired, sacked, marked lost (which ends only in a retransmission,
   a SACK or retirement) or retransmitted again; dead entries are
   dropped. Both halves of the rule only get harder to meet as the send
   time grows ([now -. sent_at] is monotone in [sent_at]), so once the
   rule spares a live entry it spares every later one: the walk stops
   there. *)
let[@ccsim.hot] rec rack t ~now ~srtt =
  if t.log_head < t.log_tail then begin
    let p = t.log_head land t.mask in
    let i = t.log_seg.(p) in
    let s = i land t.mask in
    if i < t.head || has t s (sacked_bit lor lost_bit) || t.retx.(s) <> t.log_retx.(p) then begin
      t.log_head <- t.log_head + 1;
      rack t ~now ~srtt
    end
    else begin
      let reorder_window = if srtt > 0.0 then 1.5 *. srtt else 0.1 in
      if t.sent_at.(s) < t.newest_delivered.(0) && now -. t.sent_at.(s) > reorder_window then begin
        mark_lost t i;
        t.log_head <- t.log_head + 1;
        rack t ~now ~srtt
      end
    end
  end

let[@ccsim.hot] detect_losses t ~now ~srtt =
  dup_thresh t (if t.dup_front > t.head then t.dup_front else t.head);
  rack t ~now ~srtt

let[@ccsim.hot] mark_head_lost t =
  if t.head < t.tail then begin
    if t.retx.(t.head land t.mask) = 0 then mark_lost t t.head
  end

let[@ccsim.hot] mark_all_lost t =
  for i = t.head to t.tail - 1 do
    mark_lost t i
  done

(* The walk starts at [lost_front] and leaves it at what it finds, so
   each segment is stepped over once between two [mark_lost] calls
   below it, not once per call. *)
let[@ccsim.hot] rec first_lost t i =
  if i >= t.tail then -1
  else if has t (i land t.mask) lost_bit then begin
    t.lost_front <- i;
    i
  end
  else first_lost t (i + 1)

let[@ccsim.hot] next_lost_segment t =
  if t.lost_bytes = 0 then -1
  else first_lost t (if t.lost_front > t.head then t.lost_front else t.head)
