(* R5 fixture: allocations inside [@ccsim.hot] functions. Each hot
   function's own curried spine is exempt; everything it builds per
   call is not. *)

type acc = { mutable total : int }

let[@ccsim.hot] sum_pairs acc xs =
  List.iter (fun (a, b) -> acc.total <- acc.total + a + b) xs

let[@ccsim.hot] make_pair a b = (a, b)

let[@ccsim.hot] wrap x = Some x

let[@ccsim.hot] exponent x = snd (Float.frexp x)
