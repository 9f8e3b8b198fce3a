(* R6 twin: the same polymorphic comparisons, silent under
   [@lint.allow R6 "why"]. *)

type point = { x : float; y : float }

let same_point (a : point) (b : point) = (a = b) [@lint.allow R6 "fixture: structural on purpose"]

let biggest (a : string) (b : string) = (max a b) [@lint.allow R6 "fixture: structural on purpose"]
