(** Exact windowed maximum over round-stamped samples, in fixed space.

    BBR's bottleneck-bandwidth filter: the largest delivery-rate sample
    taken in the last [window + 1] rounds. An update at round [r] drops
    every sample older than round [r - window]; [get] is the maximum of
    the samples kept by the latest update, floored at [0.0], exactly as
    a fold of [Float.max] from [0.0] over every retained sample would
    give (so NaN propagates while a NaN sample is in the window).

    Samples of one round are merged into one slot holding their maximum,
    so the filter holds [window + 1] slots however many samples a round
    brings: [get] is O(1) and [update] is O(1) within a round and
    O(window) on the first sample of a new round. [update] allocates
    nothing. *)

type t

val create : window:int -> t
(** Raises [Invalid_argument] if [window] is negative. *)

val update : t -> round:int -> value:float -> unit
(** Add a sample taken in [round]. Rounds must be non-negative and
    non-decreasing across calls; raises [Invalid_argument] otherwise. *)

val get : t -> float
(** Maximum of the retained samples; [0.0] before the first update. *)
