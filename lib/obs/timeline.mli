(** Sampled time series: the trajectory-native counterpart to the
    end-of-run {!Metrics} registry.

    A timeline holds named, labelled series of (virtual-time, value)
    points. Producers either [record] points directly (exact mirrors of
    in-simulation series, e.g. Nimbus elasticity estimates) or register
    probe closures with the engine, which samples them on a periodic
    sim-clock driver at the timeline's [interval].

    Memory is bounded per series: past [capacity] points a series is
    decimated — every other retained point is dropped and the acceptance
    stride doubles — so a series always spans the whole run with
    gracefully degrading resolution. Series shorter than [capacity]
    (e.g. elasticity estimates at one point per 0.5 s) are kept exactly,
    which is what lets [ccsim analyze] reproduce in-simulation
    classifications bit-for-bit from an exported file.

    Out-of-order points are dropped and latched as an ordering
    violation, which {!Watchdog.watch_timeline} turns into a failing
    invariant. *)

type t

type series

type labels = (string * string) list

val default_interval : float
(** 0.1 s. *)

val create :
  ?interval:float ->
  ?capacity:(int [@ccsim.test_only "tests shrink the buffer to force decimation with it"]) ->
  unit ->
  t
(** [capacity] (default 4096) is the points per series kept before
    decimation. Raises [Invalid_argument] if [interval <= 0] or
    [capacity < 2]. *)

val interval : t -> float
(** The sampling interval engine drivers should use. *)

val series : t -> ?labels:labels -> string -> series
(** Get or register the series [(name, labels)]. Label order is
    irrelevant. *)

val record : series -> time:float -> value:float -> unit
(** Append a point. Points must arrive in non-decreasing time order per
    series; an out-of-order point is dropped and latches the timeline's
    {!ordering_violation}. *)

val name : series -> string
val labels : series -> labels

val points : series -> (float * float) array
(** Retained points, oldest first (a copy). *)

val length : series -> int
val stride : series -> int [@@ccsim.test_only "tests check series decimation"]
(** Current decimation stride: 1 while under capacity, doubling on each
    compaction. *)

val all_series : t -> series list
(** Registration order. *)

val next_sim_id : t -> int
(** Fresh 1-based id for tagging the series of one simulation instance;
    a job that builds several sims (e.g. fig3's five scenarios) keeps
    their series distinct. *)

val ordering_violation : t -> (string * float * float) option
(** [(series, last_time, offending_time)] of the first out-of-order
    point offered to any series, if one ever was. *)

val to_ndjson : ?extra:(string * string) list -> t -> string
(** One JSON object per point:
    [{"series":s,"labels":{...},"t":time,"v":value}], series in
    registration order, points oldest first. [extra] pairs (e.g.
    [("job", "fig3")]) are prepended to every line. Floats are printed
    with round-trip precision. *)

val to_csv : ?header:bool -> ?extra:(string * string) list -> t -> string
(** Columns: any [extra] keys, then [series,labels,t,v]; [labels] is
    rendered as [k=v;k=v]. *)
