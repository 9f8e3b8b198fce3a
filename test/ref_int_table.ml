(* Test-only reference: the two Hashtbl paths as they were. Qdisc_obs
   kept enqueue times in an [(int, float) Hashtbl.t] (replace, find_opt,
   remove, length, reset); Link kept per-flow busy seconds as
   [(int, float ref) Hashtbl.t] cells it added to in place. One table of
   refs serves both. *)

type t = (int, float ref) Hashtbl.t

let create () : t = Hashtbl.create 256
let length = Hashtbl.length
let find t k ~default = match Hashtbl.find_opt t k with Some r -> !r | None -> default
let replace t k v = Hashtbl.replace t k (ref v)

let add_to t k d =
  match Hashtbl.find_opt t k with Some r -> r := !r +. d | None -> Hashtbl.add t k (ref d)

let remove = Hashtbl.remove
let reset = Hashtbl.reset
