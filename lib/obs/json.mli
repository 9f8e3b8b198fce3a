(** The one JSON module: rendering helpers for the NDJSON exporters and
    a reader for everything they (and the other JSON writers) produce.

    The writer covers what NDJSON emission needs: string escaping and
    flat string-to-string objects. The reader parses one complete
    value; [ccsim analyze]/[explain] read series files through it, and
    tests use it to validate whole-document exports such as Chrome
    traces. Not a general JSON library: [\u] escapes decode to UTF-8
    one basic-plane code point at a time (no surrogate pairing). *)

val str : string -> string
(** Quoted, escaped JSON string literal. *)

val obj_of_strings : (string * string) list -> string
(** [{"k":"v",...}] with both keys and values escaped. *)

exception Parse_error of string
(** Malformed input; the message names the problem and its byte
    offset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Obj of (string * t) list  (** members in document order *)
  | Arr of t list

val parse : string -> t
(** Parse one complete JSON value, surrounded by optional whitespace.
    Raises {!Parse_error} on anything else, including trailing content
    and a [\u] escape without four hex digits. *)
