(** NDT (M-Lab network data test) record schema and synthetic dataset
    generation.

    The paper analysed one month of M-Lab NDT data (9,984 flows, June
    2023). That archive is not available offline, so this module
    provides the same record schema plus a labelled statistical
    generator whose population mixture follows the measurement
    literature the paper cites: most flows application-limited or
    receiver-limited, a cellular slice, a small genuinely-contended
    slice, and clean bulk tests. Because the generator attaches ground
    truth, the §3.1 pipeline ({!Mlab_analysis}) can additionally report
    precision/recall — something the real M-Lab data cannot. *)

type access = Fixed | Cellular

type ground_truth =
  | Gt_app_limited
  | Gt_rwnd_limited
  | Gt_cellular_variation  (** rate variation from the link, not contention *)
  | Gt_contended of int  (** competing backlogged flows arriving/leaving *)
  | Gt_clean_bulk  (** uncontended, network-limited *)

type record = {
  id : int;
  access : access;
  duration_s : float;
  interval_s : float;  (** spacing of the throughput trace *)
  throughput_mbps : float array;  (** per-interval goodput trace *)
  mean_throughput_mbps : float;
  min_rtt_s : float;
  app_limited_frac : float;  (** fraction of lifetime app-limited *)
  rwnd_limited_frac : float;
  ground_truth : ground_truth option;  (** [None] for real/simulated data *)
}

val generate : rng:Ccsim_util.Rng.t -> n:int -> record list
(** [n] labelled records with 10 s / 100 ms throughput traces, drawn from
    a mixture chosen to echo the measurement literature (§2.2: Araújo et
    al. found <40% of traffic neither app- nor host- nor
    receiver-limited): 45% app-limited, 15% rwnd-limited, 20% cellular,
    5% contended, 15% clean bulk. *)

val of_speedtest : id:int -> access:access -> Ccsim_tcp.Tcp_info.t array -> record option
(** Convert a simulated {!Ccsim_app.Speedtest} snapshot sequence into an
    NDT record ([None] if fewer than two snapshots survive). Ground
    truth is [None]; attach your own from the scenario. The first 2 s
    of snapshots are dropped so the slow-start ramp is
    not mistaken for a contention-induced level shift. *)

val with_ground_truth : record -> ground_truth -> record
