(* The CCAs the fluid engine models. Their rate-ODE equations live in
   fluid_engine.ml, beside the step kernel that integrates them. *)

type t = Reno | Cubic | Bbr

let index = function Reno -> 0 | Cubic -> 1 | Bbr -> 2

let of_index = function
  | 0 -> Reno
  | 1 -> Cubic
  | 2 -> Bbr
  | i -> invalid_arg (Printf.sprintf "Fluid_model.of_index: %d" i)

let name = function Reno -> "reno" | Cubic -> "cubic" | Bbr -> "bbr"

let of_name = function
  | "reno" -> Some Reno
  | "cubic" -> Some Cubic
  | "bbr" -> Some Bbr
  | _ -> None

(* Wire size of a full segment: fluid rates are wire rates, like the
   packet engine's link occupancy; payload goodput is scaled by the
   engine's payload fraction. *)
let pkt_bytes = Ccsim_util.Units.mss + Ccsim_util.Units.header_bytes
let pkt_bits = Ccsim_util.Units.bits_of_bytes pkt_bytes
