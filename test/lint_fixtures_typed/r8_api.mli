(* R8 fixture: R8_run is run code, R8_tests test code; each comment
   says what R8 reports. *)

val run_value : int -> int  (* run code calls it: nothing *)
val test_value : int -> int  (* only a test calls it: a finding *)

(* Run code passes ?run_opt; only a test passes ?test_opt: a finding. *)
val tune : ?run_opt:int -> ?test_opt:int -> unit -> int

(* Run code reads run_field; only a test reads test_field: a finding. *)
type r = { run_field : int; test_field : int }

(* Run code builds Run_built and matches Test_built; only a test builds
   Test_built: a finding. *)
type v = Run_built | Test_built

(* Re-exported: checked only at R8_base.t, whose A run code builds
   through this alias and whose B it builds directly: nothing. *)
type json = R8_base.t = A | B

val kept : int [@@ccsim.test_only "a test reads it"]  (* nothing *)
val stale : int [@@ccsim.test_only "run code reads it too"]  (* a finding *)
val blank : int [@@ccsim.test_only " "]  (* a test reads it, but no reason: a finding *)
val orphan : int [@@ccsim.test_only "nothing reads it"]  (* a finding *)
