(** Buffer-backed rendering helpers for the experiments' [render]
    functions.

    Experiments render their paper-style rows to a string so the runner
    subsystem can cache, diff, and reorder whole outputs. The helpers
    mirror the printing primitives the modules used before
    ([print_endline], [Printf.printf], printing a
    {!Ccsim_util.Table.render}ed table) byte for byte. *)

val with_buf : (Buffer.t -> unit) -> string
(** Run the emitter against a fresh buffer and return its contents. *)

val line : Buffer.t -> string -> unit
(** Append [s] followed by a newline. *)

val table : Buffer.t -> Ccsim_util.Table.t -> unit
(** Append the rendered table. *)
