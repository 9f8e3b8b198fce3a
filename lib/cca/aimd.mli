(** Generic AIMD(a, b) congestion control (Chiu & Jain [13]).

    Adds [a] MSS per RTT in congestion avoidance and multiplies the
    window by [b] on loss. AIMD(1, 0.5) is Reno's congestion-avoidance
    rule; more aggressive parameterizations model the proprietary
    "custom algorithms" trend §2.1 describes. *)

val create : ?a:float -> ?b:float -> unit -> Cca.t
(** Defaults: [a] = 1.0, [b] = 0.5. Requires [a > 0] and [0 < b < 1].
    The window starts at the RFC 6928
    ten-segment initial window of {!Ccsim_util.Units.mss}-byte segments.
    Slow start and the cuts on loss and RTO are {!Cca}'s shared rules. *)

val make : name:string -> a:float -> b:float -> Cca.t
(** {!create} under the given name, unchecked: {!Reno} is
    [make ~name:"reno" ~a:1.0 ~b:0.5]. *)
