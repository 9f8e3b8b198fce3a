(* Binary min-heap in structure-of-arrays layout. The previous
   array-of-entries representation allocated per event: an entry record
   plus a boxed float key on every [add], and two options plus a tuple
   on every [pop]/[peek_time]. The parallel arrays keep the float keys
   unboxed (float array storage), the [pop_exn]/[last_time]/[next_time]
   protocol returns through an unboxed one-slot float buffer, and the
   only remaining steady-state allocation is the 2-word cancellation
   handle [add] hands back. The option-returning [pop]/[peek_time] are
   kept as thin wrappers for existing callers and tests. *)

type id = { mutable cancelled : bool }

type 'a t = {
  (* Parallel arrays; slots at [len..] are stale. [payloads] stays [||]
     until the first add supplies a fill value. *)
  mutable times : float array;
  mutable seqs : int array;
  mutable ids : id array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
  mutable live : int;
  (* Unboxed return slot for the time of the last [pop_exn]. *)
  last_popped : float array;
}

let create () =
  {
    times = [||];
    seqs = [||];
    ids = [||];
    payloads = [||];
    len = 0;
    next_seq = 0;
    live = 0;
    last_popped = Array.make 1 nan;
  }

(* Heap order: (time, seq) lexicographic; seq breaks same-instant ties
   in scheduling order, which the TCP model relies on. *)
let[@inline] before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (Float.equal ti tj && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let id = t.ids.(i) in
  t.ids.(i) <- t.ids.(j);
  t.ids.(j) <- id;
  let pl = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- pl

let[@ccsim.hot] rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let[@ccsim.hot] rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.len && before t l i then l else i in
  let smallest = if r < t.len && before t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* Amortized doubling; runs once per capacity step, not per event. *)
let grow t id payload =
  (let cap = if t.len = 0 then 16 else 2 * t.len in
   let times = Array.make cap 0.0 in
   Array.blit t.times 0 times 0 t.len;
   let seqs = Array.make cap 0 in
   Array.blit t.seqs 0 seqs 0 t.len;
   let ids = Array.make cap id in
   Array.blit t.ids 0 ids 0 t.len;
   let payloads = Array.make cap payload in
   Array.blit t.payloads 0 payloads 0 t.len;
   t.times <- times;
   t.seqs <- seqs;
   t.ids <- ids;
   t.payloads <- payloads)
  [@ccsim.alloc_ok "amortized array doubling: O(log n) growth events over a run, not per-event"]

let[@ccsim.hot] add t ~time payload =
  let id =
    ({ cancelled = false }
    [@ccsim.alloc_ok "the 2-word cancellation handle is the add API's return value"])
  in
  if t.len = Array.length t.times then grow t id payload;
  let i = t.len in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.ids.(i) <- id;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t i;
  t.live <- t.live + 1;
  id

let cancelled id = id.cancelled

let cancel t id =
  if not id.cancelled then begin
    id.cancelled <- true;
    t.live <- t.live - 1
  end

(* Remove the root, restoring heap order. Caller checks len > 0. *)
let[@ccsim.hot] drop_top t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    let n = t.len in
    t.times.(0) <- t.times.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.ids.(0) <- t.ids.(n);
    t.payloads.(0) <- t.payloads.(n);
    sift_down t 0
  end

exception Empty

let[@ccsim.hot] rec pop_exn t =
  if t.len = 0 then raise Empty
  else begin
    let id = t.ids.(0) in
    if id.cancelled then begin
      drop_top t;
      pop_exn t
    end
    else begin
      t.last_popped.(0) <- t.times.(0);
      let payload = t.payloads.(0) in
      id.cancelled <- true;
      (* fired events count as consumed *)
      t.live <- t.live - 1;
      drop_top t;
      payload
    end
  end

let[@inline] last_time t = t.last_popped.(0)

let rec next_time_slow t =
  if t.len = 0 then infinity
  else if t.ids.(0).cancelled then begin
    drop_top t;
    next_time_slow t
  end
  else t.times.(0)

let[@inline] next_time t =
  if t.len > 0 && not t.ids.(0).cancelled then t.times.(0) else next_time_slow t

(* Compatibility wrappers over the alloc-free protocol. *)

let pop t =
  match pop_exn t with
  | payload -> Some (last_time t, payload)
  | exception Empty -> None

let peek_time t = if t.live = 0 then None else Some (next_time t)

let size t = t.live
let is_empty t = t.live = 0
