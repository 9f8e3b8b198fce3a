type t = A | B
