(* Fixture: [@lint.allow] misused. Each attribute is itself a finding;
   R5 and R8 keep their own hatches, so R5's finding stands too. *)

type point = { x : float; y : float }

(* Stale: at int, R6 has nothing to say. *)
let same_int (a : int) b = (a = b) [@lint.allow R6 "fixture: nothing to silence"]

let same_point (a : point) b = (a = b) [@lint.allow R6]

let biggest (a : string) b = (max a b) [@lint.allow R6 " "]

let[@ccsim.hot] boxed (a : float) = (Some a) [@lint.allow R5 "fixture: R5 takes alloc_ok"]

let reached = 1 [@@lint.allow R8 "fixture: R8 takes test_only"]

type tag = int [@@lint.allow R6 "fixture: on a type, over no expression"]
