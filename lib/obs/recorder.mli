(** Flight recorder: a bounded, structured, severity-leveled event
    journal.

    Generalizes packet tracing: packet events are one event class
    alongside CCA decisions, qdisc drops, and application state changes.
    Each event carries a virtual timestamp, a severity, a class (e.g.
    ["packet"], ["qdisc"], ["cca"], ["app"]), a [point] naming where in
    the system it was observed, a free-form detail string, and optional
    structured key/value fields.

    Memory is bounded: the journal keeps the most recent [capacity]
    events and counts evictions. *)

type severity = Debug | Info | Warn | Error

type event = {
  at : float;  (** virtual time of the event *)
  severity : severity;
  kind : string;  (** event class; exported as ["class"] *)
  point : string;  (** component/location that recorded it *)
  detail : string;
  fields : (string * string) list;
}

type t

val default_capacity : int
(** 200,000 events. *)

val create : ?capacity:int -> ?level:severity -> unit -> t
(** Keeps the most recent [capacity] events (default
    {!default_capacity}); events below [level] (default [Debug], i.e.
    keep everything) are discarded at record time without counting. *)

val admits : t -> severity -> bool
(** Whether {!record} keeps an event of this severity. A per-packet
    site resolves it once, when it is created, and then builds no
    record the level would drop. *)

val record :
  t -> at:float -> ?severity:severity -> kind:string -> point:string ->
  ?fields:(string * string) list -> string -> unit
(** Default severity [Info]. *)

val events : t -> event list
(** Oldest first, within the retained window. *)

val count : t -> int
(** Total events accepted (including evicted ones). *)

val retained : t -> int [@@ccsim.test_only "tests check the journal's ring and levels"]
val evicted : t -> int [@@ccsim.test_only "tests check the journal's ring and levels"]
val by_kind : t -> string -> event list
[@@ccsim.test_only "tests check the journal's ring and levels"]

val severity_to_string : severity -> string

val to_ndjson : ?extra:(string * string) list -> t -> string
(** One JSON object per line, oldest first. [extra] pairs (e.g.
    [("job", "fig1")]) are prepended to every line. The class is
    exported under the key ["class"]. *)

val to_csv : ?header:bool -> ?extra:(string * string) list -> t -> string
(** Columns: any [extra] keys, then
    [at,severity,class,point,detail,fields]; [fields] is rendered as
    [k=v;k=v]. [header] (default true) controls the header row. *)
