(* Fixture: R2 violations — nondeterminism sources. Compiled with the
   other lint fixtures; test_lint.ml asserts its exact findings. *)

let jitter () = Random.float 0.010

let stamp () = Unix.gettimeofday ()

let dump table = Hashtbl.iter (fun k v -> Printf.printf "%s=%d\n" k v) table

let allocated () = (Gc.quick_stat ()).Gc.minor_words
