(** Figure 2 reproduction: the §3.1 M-Lab NDT analysis.

    The paper queried one month of M-Lab NDT data (9,984 flows),
    categorized flows that could not have experienced CCA contention
    (application-limited, receiver-limited, cellular), and searched the
    remainder's throughput traces for contention-consistent level
    shifts. We run the same pipeline over a synthetic labelled dataset
    of the same size (see {!Ccsim_measure.Ndt} for the population
    model), which additionally lets us score the detector against
    ground truth. *)

type output = {
  report : Ccsim_measure.Mlab_analysis.report;
  accuracy : Ccsim_measure.Mlab_analysis.accuracy option;
}

val run : ?n:int -> ?seed:int -> unit -> output
(** Default [n] = 9,984 flows, as in the paper. *)

val render : output -> string
(** Paper-style report rows rendered to a string; the runner caches
    and reorders these. *)
