(** Unit conversions used throughout the simulator.

    Conventions: time is in seconds (float), data rates are in bits per
    second (float), packet and buffer sizes are in bytes (int). These
    helpers exist so that scenario descriptions can be written in the
    units the paper uses (Mbit/s, milliseconds, MSS-sized packets). *)

val bits_of_bytes : int -> float
(** [bits_of_bytes b] is [8 * b] as a float. *)

val bytes_of_bits : float -> int
[@@ccsim.test_only "unit conversion the tests state their setups in"]
(** [bytes_of_bits b] rounds [b / 8] to the nearest byte. *)

val mbps : float -> float
(** [mbps x] is [x] megabits per second expressed in bit/s. *)

val kbps : float -> float
(** [kbps x] is [x] kilobits per second expressed in bit/s. *)

val gbps : float -> float [@@ccsim.test_only "unit conversion the tests state their setups in"]
(** [gbps x] is [x] gigabits per second expressed in bit/s. *)

val to_mbps : float -> float
(** [to_mbps r] converts a rate in bit/s to Mbit/s. *)

val ms : float -> float [@@ccsim.test_only "unit conversion the tests state their setups in"]
(** [ms x] is [x] milliseconds expressed in seconds. *)

val us : float -> float [@@ccsim.test_only "unit conversion the tests state their setups in"]
(** [us x] is [x] microseconds expressed in seconds. *)

val to_ms : float -> float [@@ccsim.test_only "unit conversion the tests state their setups in"]
(** [to_ms t] converts seconds to milliseconds. *)

val bdp_bytes : rate_bps:float -> rtt_s:float -> int
(** Bandwidth-delay product in bytes. *)

val bdp_packets : rate_bps:float -> rtt_s:float -> mss:int -> float
[@@ccsim.test_only "unit conversion the tests state their setups in"]
(** Bandwidth-delay product expressed in MSS-sized packets (fractional:
    sub-packet regimes, as in Chen et al., yield values below 1). *)

val mss : int
(** Default maximum segment size in bytes (1448, i.e. 1500 MTU minus
    40 bytes of IP/TCP headers and 12 bytes of timestamps). *)

val header_bytes : int
(** Bytes of header overhead accounted per segment (52). *)
