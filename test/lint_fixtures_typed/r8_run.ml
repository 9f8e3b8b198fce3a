(* R8 fixture: run code, so its uses reach R8_api's declarations. *)

let value = R8_api.run_value 1
let tuned = R8_api.tune ~run_opt:1 ()
let field (r : R8_api.r) = r.run_field
let built = R8_api.Run_built
let matched = function R8_api.Run_built -> 0 | R8_api.Test_built -> 1
let via_alias = R8_api.A
let direct = R8_base.B
let stale = R8_api.stale
