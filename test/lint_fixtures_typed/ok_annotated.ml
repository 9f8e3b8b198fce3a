(* Fixture: R1 and R2 violations silenced by [@lint.allow Rn "why"] —
   the linter must report nothing here. *)

(* Touched by one domain only. *)
let per_domain_scratch = ref 0 [@@lint.allow R1 "fixture: touched by one domain only"]

let seed_jitter () = (Random.bits () [@lint.allow R2 "fixture: a reviewed exception"])
