(* R6 fixture: polymorphic comparison instantiated at non-immediate
   types -- a record, a float (nan-wrong), and max over strings. *)

type point = { x : float; y : float }

let same_point (a : point) (b : point) = a = b

let float_eq (u : float) (v : float) = u = v

let biggest (a : string) (b : string) = max a b

(* Float = and <> without annotations: one operand a float literal,
   the other pair left polymorphic. *)

let is_idle rate_bps = rate_bps = 0.0

let changed ~prev_s ~next_s = prev_s <> next_s

(* A variant of constant constructors only is immediate: [=] on it
   compiles to an integer comparison and is silent. A variant with an
   argument is not. *)

type dir = Up | Down

let same_dir (a : dir) (b : dir) = a = b

type shape = Dot | Box of int

let same_shape (a : shape) (b : shape) = a = b
