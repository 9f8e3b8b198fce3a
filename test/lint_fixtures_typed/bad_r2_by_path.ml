(* Fixture: R2 hazards only the resolved paths show — a clock read
   through `open Unix`, the global Random through module aliases. *)

open Unix

let stamp () = gettimeofday ()

module R = Random

let jitter () = R.float 0.010

let draw () = let module S = R.State in S.bits (S.make [| 1 |])

(* Silent: a local [time] is not Unix.time. *)
let time () = 0.0
let not_a_clock () = time ()
