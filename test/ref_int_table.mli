(* Test-only reference: the Stdlib.Hashtbl paths Ccsim_util.Int_table
   replaced (Qdisc_obs's enqueue-time map and Link's per-flow busy
   seconds), behind Int_table's interface. *)

type t

val create : unit -> t
val length : t -> int
val find : t -> int -> default:float -> float
val replace : t -> int -> float -> unit
val add_to : t -> int -> float -> unit
val remove : t -> int -> unit
val reset : t -> unit
