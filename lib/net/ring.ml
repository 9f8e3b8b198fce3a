(* A growable FIFO over a power-of-two array. Every slot that holds no
   element holds [filler]: a popped slot is overwritten at once, so the
   ring keeps no reference to an element that left. That matters once
   the array is in the major heap. A store into it puts the slot in the
   remembered set, and a young element still referenced from there at
   the next minor collection is promoted; a [Queue] cell chain promotes
   every later cell and its element that way, even ones dequeued long
   before. *)

type 'a t = {
  filler : 'a;
  mutable items : 'a array;  (* [||] until the first push *)
  mutable first : int;  (* slot of the oldest element *)
  mutable length : int;
}

let create ~filler = { filler; items = [||]; first = 0; length = 0 }
let[@ccsim.hot] length t = t.length
let[@ccsim.hot] is_empty t = t.length = 0

(* Double the array (4 slots at first), unrolling it to start at slot 0. *)
let grow t =
  (let cap = Array.length t.items in
   let items = Array.make (if cap = 0 then 4 else 2 * cap) t.filler in
   for k = 0 to t.length - 1 do
     items.(k) <- t.items.((t.first + k) land (cap - 1))
   done;
   t.items <- items;
   t.first <- 0)
  [@ccsim.alloc_ok "amortized ring doubling: once per capacity step, not per element"]

let[@ccsim.hot] push t x =
  if t.length = Array.length t.items then grow t;
  t.items.((t.first + t.length) land (Array.length t.items - 1)) <- x;
  t.length <- t.length + 1

let[@ccsim.hot] peek t = if t.length = 0 then t.filler else t.items.(t.first)

let[@ccsim.hot] pop t =
  if t.length = 0 then t.filler
  else begin
    let i = t.first in
    let x = t.items.(i) in
    t.items.(i) <- t.filler;
    t.first <- (i + 1) land (Array.length t.items - 1);
    t.length <- t.length - 1;
    x
  end

let pop_newest t =
  if t.length = 0 then t.filler
  else begin
    let i = (t.first + t.length - 1) land (Array.length t.items - 1) in
    let x = t.items.(i) in
    t.items.(i) <- t.filler;
    t.length <- t.length - 1;
    x
  end

let fold f acc t =
  let mask = Array.length t.items - 1 in
  let rec go acc k = if k = t.length then acc else go (f acc t.items.((t.first + k) land mask)) (k + 1) in
  go acc 0
