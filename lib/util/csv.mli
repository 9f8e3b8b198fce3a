(** CSV fields as the timeline and flight-recorder [.csv] exports write
    them, and a reader for one line.

    Quoting follows RFC 4180: fields containing commas, quotes, carriage
    returns or newlines are double-quoted with inner quotes doubled. *)

val escape_field : string -> string
(** Quote a field if needed. *)

val row_to_string : string list -> string
(** One CSV line, without the trailing newline. *)

val parse_line : string -> string list [@@ccsim.test_only "tests round-trip CSV rows"]
(** Parse one line (handles quoted fields; raises [Invalid_argument] on
    an unterminated quote). *)
