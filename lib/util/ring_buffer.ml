type t = {
  data : float array;
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { data = Array.make capacity 0.0; head = 0; len = 0 }

let capacity t = Array.length t.data
let length t = t.len
let is_full t = t.len = capacity t

let push t x =
  let cap = capacity t in
  if t.len < cap then begin
    t.data.((t.head + t.len) mod cap) <- x;
    t.len <- t.len + 1
  end
  else begin
    t.data.(t.head) <- x;
    t.head <- (t.head + 1) mod cap
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ring_buffer.get: index out of range";
  t.data.((t.head + i) mod capacity t)

let newest t =
  if t.len = 0 then invalid_arg "Ring_buffer.newest: empty buffer";
  get t (t.len - 1)

let blit t dst =
  if Array.length dst < t.len then invalid_arg "Ring_buffer.blit: destination too short";
  let first = Int.min t.len (capacity t - t.head) in
  Array.blit t.data t.head dst 0 first;
  Array.blit t.data 0 dst first (t.len - first)
