(** Metrics registry: named counters, gauges, and log-scale histograms
    with labels.

    Instruments are registered (or re-fetched) by [(name, labels)]; two
    registrations with the same name and label set share one instrument,
    so independently created components naturally aggregate (e.g. every
    FIFO qdisc increments the same ["qdisc_enqueued_total"]
    [{qdisc=fifo}] counter). Label order is irrelevant.

    Mutation is allocation-free: a counter increment is a single field
    store, and an observation neither hashes nor boxes. Registries are
    not thread-safe — use one registry per concurrently running job (as
    the CLI does) rather than sharing one across pool domains. *)

type t
(** A registry. *)

type labels = (string * string) list

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?labels:labels -> string -> counter
(** Get or register. Raises [Invalid_argument] if [(name, labels)] is
    already registered as a different instrument kind. *)

val gauge : t -> ?labels:labels -> string -> gauge
val histogram : t -> ?labels:labels -> string -> histogram
(** Log-scale histogram with power-of-two buckets covering roughly
    [2^-41, 2^23) — nanoseconds to megaseconds when observing seconds.
    Non-positive observations are tallied in a separate zero bucket. *)

val inc : counter -> unit
val add : counter -> int -> unit
val value : counter -> int [@@ccsim.test_only "tests read instruments with it"]

val set : gauge -> float -> unit

val set_int : gauge -> int -> unit
(** [set_int g n] is [set g (float_of_int n)] without boxing the float
    at the call site. *)

val gauge_value : gauge -> float [@@ccsim.test_only "tests read instruments with it"]

val observe : histogram -> float -> unit

val observe_int : histogram -> int -> unit
(** [observe_int h n] is [observe h (float_of_int n)] without boxing
    the float at the call site (heap depths, byte counts). *)

val observations : histogram -> int [@@ccsim.test_only "tests read instruments with it"]
val sum : histogram -> float [@@ccsim.test_only "tests read instruments with it"]

val bucket_upper_bound : int -> float [@@ccsim.test_only "tests read instruments with it"]
(** Exclusive upper bound of bucket [i] (for export consumers). *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([q] within [[0,1]],
    raises [Invalid_argument] otherwise) by linear interpolation within
    the power-of-two bucket covering continuous rank [q * count]; the
    zero bucket contributes rank mass at value 0. Returns 0 for an empty
    histogram. Accurate to within one bucket width (a factor of two). *)

val size : t -> int [@@ccsim.test_only "tests read instruments with it"]
(** Number of registered instruments. *)

val find_counter :
  t -> ?labels:(labels [@ccsim.test_only "tests look up labelled counters with it"]) -> string ->
  counter option [@@ccsim.test_only "tests read instruments with it"]
val find_histogram : t -> string -> histogram option
(** The unlabelled histogram named [name], if registered. *)

val to_ndjson : ?extra:(string * string) list -> t -> string
(** One JSON object per line, in registration order. [extra] key/value
    pairs (e.g. [("job", "fig1")]) are prepended to every line.
    Counter/gauge lines carry ["value"]; histogram lines carry
    ["count"], ["sum"], ["zero"], derived ["p50"]/["p95"]/["p99"]
    quantile estimates (see {!quantile}), and the non-empty ["buckets"]
    as [{"le", "count"}] pairs. *)
