let run_value x = x
let test_value x = x
let tune ?(run_opt = 0) ?(test_opt = 0) () = run_opt + test_opt

type r = { run_field : int; test_field : int }
type v = Run_built | Test_built
type json = R8_base.t = A | B

let kept, stale, blank, orphan = (1, 2, 3, 4)
