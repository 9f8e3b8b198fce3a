(* R8 fixture: the original of the variant R8_api re-exports. *)

type t = A | B
