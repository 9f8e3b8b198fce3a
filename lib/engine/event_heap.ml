(* Indexed 4-ary min-heap over a slot table.

   Two index spaces share one capacity:

   - heap positions [0 .. len-1]: [times] (unboxed float array) and
     [keys], where key = seq * 2^24 + slot. Comparing keys compares the
     scheduling sequence numbers (unique, in the high bits), so
     (time, key) order is the (time, seq) order. Sifts move only these
     two unboxed arrays: no pointer store, no write barrier.
   - slots: [payloads] holds each event's payload, written once per
     {!add} (and by {!reschedule} only when the payload changes), and
     [meta] packs the slot's generation (high bits) with its heap
     position while the slot is live, or with the next free slot while
     it is on the free list.

   A handle is the immediate int generation * 2^24 + slot. Freeing a
   slot (pop or cancel) bumps its generation, so every handle to the
   event it held goes stale at once and a later event in the reused
   slot cannot be cancelled through it. [cancel] unlinks the entry
   immediately, so the heap holds only live events.

   [pop_exn] leaves the root empty (the hole) rather than moving the
   last entry into it. An event's callback usually schedules one: the
   first insert after a pop takes the root and sifts down once, where
   filling the hole first would sift the last entry down and then the
   new one up. Anything else that reads or reorders the heap ([due],
   [pop_exn], a live [cancel] or [reschedule], [peek_time]) first fills
   the hole as a removal always did. [size] excludes it. *)

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* [slot_mask] terminates the free list and is never a slot, so the
   handle [none] (all bits set) is never live. *)
let max_slots = slot_mask
let gen_one = 1 lsl slot_bits
let gen_mask = lnot slot_mask

(* Keys must stay non-negative for int comparison to follow seq. *)
let max_seq = max_int lsr slot_bits

type id = int

let none = -1

type 'a t = {
  mutable times : float array;  (* by heap position *)
  mutable keys : int array;  (* by heap position: seq lsl slot_bits lor slot *)
  mutable payloads : 'a array;  (* by slot; stays [||] until the first add *)
  mutable meta : int array;  (* by slot: generation lor (position or next free) *)
  mutable len : int;  (* heap positions in use, the hole included *)
  mutable hole : bool;  (* position 0 is vacant: the last pop left it *)
  mutable fresh : int;  (* slots [fresh ..] have never been handed out *)
  mutable free : int;  (* head of the free-slot list, [slot_mask] when empty *)
  mutable next_seq : int;
  sifted : float array;
      (* [|time of the entry being sifted|]: an unboxed slot, so the
         sifts box no float *)
}

let create () =
  {
    times = [||];
    keys = [||];
    payloads = [||];
    meta = [||];
    len = 0;
    hole = false;
    fresh = 0;
    free = slot_mask;
    next_seq = 0;
    sifted = [| 0.0 |];
  }

(* Whether heap entry [i] precedes the entry being sifted
   ([sifted.(0)], [key]). Callers never store NaN, so [<=] after [<]
   means equal. *)
let[@ccsim.hot] [@inline] entry_before t i key =
  let ti = t.times.(i) and tm = t.sifted.(0) in
  ti < tm || (ti <= tm && t.keys.(i) < key)

let[@ccsim.hot] [@inline] earlier t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti <= tj && t.keys.(i) < t.keys.(j))

(* Store [key] at heap position [pos] and point its slot there. *)
let[@ccsim.hot] [@inline] set_pos t pos key =
  let s = key land slot_mask in
  t.keys.(pos) <- key;
  t.meta.(s) <- (t.meta.(s) land gen_mask) lor pos

(* Seat the entry being sifted at [pos]. *)
let[@ccsim.hot] [@inline] place t pos key =
  t.times.(pos) <- t.sifted.(0);
  set_pos t pos key

let[@ccsim.hot] [@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  set_pos t dst t.keys.(src)

(* Hole sifts: the entry being placed lives in [sifted.(0)] and [key]
   while parents (up) or the earliest child (down) shift into the hole. *)
let[@ccsim.hot] rec sift_up t pos key =
  if pos = 0 then place t 0 key
  else begin
    let parent = (pos - 1) lsr 2 in
    if entry_before t parent key then place t pos key
    else begin
      move t ~src:parent ~dst:pos;
      sift_up t parent key
    end
  end

let[@ccsim.hot] rec sift_down t pos key =
  let c = (4 * pos) + 1 in
  if c >= t.len then place t pos key
  else begin
    let n = t.len in
    let m = if c + 1 < n && earlier t (c + 1) c then c + 1 else c in
    let m = if c + 2 < n && earlier t (c + 2) m then c + 2 else m in
    let m = if c + 3 < n && earlier t (c + 3) m then c + 3 else m in
    if entry_before t m key then begin
      move t ~src:m ~dst:pos;
      sift_down t m key
    end
    else place t pos key
  end

(* Re-seat the entry ([sifted.(0)], [key]) at [pos], whose previous
   occupant left: up if it precedes the parent, else down. *)
let[@ccsim.hot] resift t pos key =
  if pos > 0 && not (entry_before t ((pos - 1) lsr 2) key) then sift_up t pos key
  else sift_down t pos key

(* Amortized doubling; runs once per capacity step, not per event.
   [len] equals the capacity, so every slot is live. *)
let grow t payload =
  (let cap = Array.length t.times in
   if cap >= max_slots then failwith "Event_heap: too many pending events";
   let cap' = if cap = 0 then 16 else Int.min max_slots (2 * cap) in
   let extend a fill =
     let b = Array.make cap' fill in
     Array.blit a 0 b 0 cap;
     b
   in
   t.times <- extend t.times 0.0;
   t.keys <- extend t.keys 0;
   t.payloads <- extend t.payloads payload;
   t.meta <- extend t.meta 0)
  [@ccsim.alloc_ok "amortized array doubling: O(log n) growth events over a run, not per-event"]

let seq_exhausted () = failwith "Event_heap: sequence numbers exhausted"

let[@ccsim.hot] reserve t =
  let seq = t.next_seq in
  if seq >= max_seq then seq_exhausted ();
  t.next_seq <- seq + 1;
  seq

(* A fresh sequence number's key for [slot]. *)
let[@ccsim.hot] [@inline] next_key t slot = (reserve t lsl slot_bits) lor slot

let unreserved () = invalid_arg "Event_heap.add_reserved: sequence number was never reserved"

(* Seat [payload] at [sifted.(0)] under [seq lsl slot_bits lor slot]
   for a free slot; [seq] is fresh ([add]) or reserved earlier. Into the
   hole when there is one: the pop that left it freed a slot, and its
   position is still counted in [len]. *)
let[@ccsim.hot] insert t ~seq payload =
  let hole = t.hole in
  if (not hole) && t.len = Array.length t.times then grow t payload;
  let s =
    if t.free <> slot_mask then begin
      let s = t.free in
      t.free <- t.meta.(s) land slot_mask;
      s
    end
    else begin
      let s = t.fresh in
      t.fresh <- s + 1;
      s
    end
  in
  t.payloads.(s) <- payload;
  let key = (seq lsl slot_bits) lor s in
  if hole then begin
    t.hole <- false;
    sift_down t 0 key
  end
  else begin
    let pos = t.len in
    t.len <- pos + 1;
    sift_up t pos key
  end;
  (t.meta.(s) land gen_mask) lor s

(* Event times arrive through float-array slots and are summed here,
   so no entry point takes or returns a boxed float. *)
let[@ccsim.hot] add t clock ~delay payload =
  t.sifted.(0) <- clock.(0) +. delay;
  insert t ~seq:(reserve t) payload

let[@ccsim.hot] add_reserved t times i ~seq payload =
  if seq < 0 || seq >= t.next_seq then unreserved ();
  t.sifted.(0) <- times.(i);
  insert t ~seq payload

(* The slot of [id] while its event is pending, else -1. *)
let[@ccsim.hot] [@inline] live_slot t id =
  let s = id land slot_mask in
  if s < t.fresh && t.meta.(s) land gen_mask = id land gen_mask then s else -1

let[@ccsim.hot] cancelled t id = live_slot t id < 0

(* Retire slot [s] (its handles go stale) onto the free list. *)
let[@ccsim.hot] [@inline] release t s =
  t.meta.(s) <- ((t.meta.(s) land gen_mask) + gen_one) lor t.free;
  t.free <- s

(* Unlink heap position [pos]: the last entry fills the gap. *)
let[@ccsim.hot] remove_at t pos =
  let last = t.len - 1 in
  t.len <- last;
  if pos < last then begin
    t.sifted.(0) <- t.times.(last);
    resift t pos t.keys.(last)
  end

(* Close a pending hole the way a removal at the root does. *)
let[@ccsim.hot] fill_hole t =
  if t.hole then begin
    t.hole <- false;
    remove_at t 0
  end

let[@ccsim.hot] cancel t id =
  let s = live_slot t id in
  if s >= 0 then begin
    fill_hole t;
    let pos = t.meta.(s) land slot_mask in
    release t s;
    remove_at t pos
  end

(* A stale handle's reschedule is an add, and takes the hole like one. *)
let[@ccsim.hot] reschedule t id clock ~delay payload =
  let s = live_slot t id in
  if s < 0 then add t clock ~delay payload
  else begin
    fill_hole t;
    if t.payloads.(s) != payload then t.payloads.(s) <- payload;
    t.sifted.(0) <- clock.(0) +. delay;
    resift t (t.meta.(s) land slot_mask) (next_key t s);
    id
  end

exception Empty

let[@ccsim.hot] pop_exn t clock =
  fill_hole t;
  if t.len = 0 then raise Empty
  else begin
    let s = t.keys.(0) land slot_mask in
    clock.(0) <- t.times.(0);
    release t s;
    t.hole <- true;
    t.payloads.(s)
  end

let[@ccsim.hot] due t ~until =
  fill_hole t;
  t.len > 0 && t.times.(0) <= until

(* Option-returning wrappers for tests. *)

let pop t =
  let clock = [| nan |] in
  match pop_exn t clock with
  | payload -> Some (clock.(0), payload)
  | exception Empty -> None

let peek_time t =
  fill_hole t;
  if t.len = 0 then None else Some t.times.(0)

let size t = if t.hole then t.len - 1 else t.len
