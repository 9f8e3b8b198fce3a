(* Fixture: R1 hazards only the types show — a table a helper builds, a
   record literal with a mutable field — and the silent cases. *)

let make_table () : (int, string) Hashtbl.t = Hashtbl.create 8
let table = make_table ()

type counter = { mutable hits : int; name : string }
let global = { hits = 0; name = "global" }

module Inner = struct
  let pending = Queue.create ()
  let () = Queue.push 1 pending
end

(* Silent: sanctioned, immutable, or built per call. *)
let hits = Atomic.make 0
let scratch = Domain.DLS.new_key (fun () -> ref 0)
type frozen = { label : string }
let constant = { label = "constant" }
let fresh () = ref 0
