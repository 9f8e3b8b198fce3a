(* Linear probing with backward-shift deletion (Knuth's Algorithm R): a
   removal moves the later members of its probe chain back into the
   hole, so no tombstones accumulate and every lookup stops at the
   first free slot. The load factor stays at or below one half. *)

let free = min_int
let initial_bits = 4

type t = {
  mutable keys : int array;  (* [free] in unused slots *)
  mutable vals : float array;
  mutable bits : int;  (* capacity = 2^bits *)
  mutable size : int;
}

let create () =
  let n = 1 lsl initial_bits in
  { keys = Array.make n free; vals = Array.make n 0.0; bits = initial_bits; size = 0 }

let length t = t.size

(* Fibonacci hashing: the top [bits] bits of the key times 2^63/phi.
   Runs of consecutive keys (packet uids, flow ids) land on distinct
   slots. *)
let home bits k = (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

(* The key's slot, or the free slot that ends its probe chain. *)
let rec probe keys mask k i =
  let s = keys.(i) in
  if s = k || s = free then i else probe keys mask k ((i + 1) land mask)

let[@ccsim.hot] slot t k =
  if k = free then invalid_arg "Int_table: min_int is the reserved free-slot key";
  probe t.keys ((1 lsl t.bits) - 1) k (home t.bits k)

let[@ccsim.hot] find t k ~default =
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) else default

(* Growth allocates the doubled arrays; it runs once per doubling. *)
let grow t =
  let keys = t.keys and vals = t.vals in
  let bits = t.bits + 1 in
  let n = 1 lsl bits in
  t.keys <- Array.make n free;
  t.vals <- Array.make n 0.0;
  t.bits <- bits;
  Array.iteri
    (fun j k ->
      if k <> free then begin
        let i = slot t k in
        t.keys.(i) <- k;
        t.vals.(i) <- vals.(j)
      end)
    keys

(* Bind an unbound key whose probe ended at free slot [i]. *)
let[@ccsim.hot] insert t i k v =
  if 2 * (t.size + 1) > 1 lsl t.bits then begin
    grow t;
    let j = slot t k in
    t.keys.(j) <- k;
    t.vals.(j) <- v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v
  end;
  t.size <- t.size + 1

let[@ccsim.hot] replace t k v =
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- v else insert t i k v

let[@ccsim.hot] add_to t k d =
  let i = slot t k in
  if t.keys.(i) = k then t.vals.(i) <- t.vals.(i) +. d else insert t i k d

(* [hole] is free; walk the chain after it and pull back each member
   whose home lies cyclically at or before the hole. *)
let rec close_hole t mask hole j =
  let k = t.keys.(j) in
  if k = free then t.keys.(hole) <- free
  else if (j - home t.bits k) land mask >= (j - hole) land mask then begin
    t.keys.(hole) <- k;
    t.vals.(hole) <- t.vals.(j);
    close_hole t mask j ((j + 1) land mask)
  end
  else close_hole t mask hole ((j + 1) land mask)

let[@ccsim.hot] remove t k =
  let i = slot t k in
  if t.keys.(i) = k then begin
    t.size <- t.size - 1;
    let mask = (1 lsl t.bits) - 1 in
    close_hole t mask i ((i + 1) land mask)
  end

let reset t =
  if t.bits = initial_bits then Array.fill t.keys 0 (Array.length t.keys) free
  else begin
    let n = 1 lsl initial_bits in
    t.keys <- Array.make n free;
    t.vals <- Array.make n 0.0;
    t.bits <- initial_bits
  end;
  t.size <- 0
