(** Mutable map from [int] keys to [float] values that allocates
    nothing per operation.

    Open addressing with linear probing over an [int array] of keys and
    a flat [float array] of values, so a lookup, an update or a removal
    touches two unboxed arrays and never builds a bucket cell, an
    option or a boxed float. The per-packet instruments use it:
    [Qdisc_obs]'s enqueue times keyed by packet uid and [Link]'s
    per-flow busy seconds. It starts at 16 slots and doubles as it
    fills.

    [min_int] is reserved as the free-slot marker: every operation
    given it as a key raises [Invalid_argument]. Packet uids and flow
    ids never reach it. *)

type t

val create : unit -> t
(** An empty table of 16 slots. *)

val length : t -> int
(** Number of bindings. *)

val find : t -> int -> default:float -> float
(** The value bound to the key, or [default] when it is unbound. *)

val replace : t -> int -> float -> unit
(** Bind the key to the value, replacing any previous binding. *)

val add_to : t -> int -> float -> unit
(** [add_to t k d] adds [d] to the value bound to [k]; an unbound key
    is bound to [d]. *)

val remove : t -> int -> unit
(** Drop the key's binding; a no-op when it is unbound. *)

val reset : t -> unit
(** Drop every binding and shrink back to 16 slots, as
    [Hashtbl.reset] does. *)
