(* Fixture: R1 violations — top-level mutable state. Compiled with the
   other lint fixtures; test_lint.ml asserts its exact findings. *)

let hit_count = ref 0
let cache = Hashtbl.create 16
let scratch = Array.make 8 0.0

let bump () =
  incr hit_count;
  Hashtbl.replace cache !hit_count "seen";
  scratch.(0) <- 1.0
