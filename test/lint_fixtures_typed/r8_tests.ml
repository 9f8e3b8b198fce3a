(* R8 fixture: test code, so its uses reach only for the tests. *)

let value = R8_api.test_value 1
let tuned = R8_api.tune ~test_opt:2 ()
let field (r : R8_api.r) = r.test_field
let built = R8_api.Test_built
let kept = R8_api.kept
let stale = R8_api.stale
let blank = R8_api.blank
