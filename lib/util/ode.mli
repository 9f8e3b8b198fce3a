(** Fixed-step forward-Euler integration over [float array] state.

    The fluid-model engine integrates one large state vector (per-flow
    windows/rates plus per-link queue levels) on a fixed step; this
    module isolates the integrator so it is testable against
    closed-form solutions independent of any network model.

    A derivative function receives the current time and state and
    writes [dy/dt] into a caller-owned output array — no allocation on
    the stepping path. Steps mutate [y] in place. *)

type deriv = t_s:float -> y:float array -> dy:float array -> unit
(** [deriv ~t_s ~y ~dy] writes the derivative of every state component
    into [dy]. [y] must not be mutated by the derivative function. *)

type workspace
(** Preallocated derivative array for one state dimension. *)

val workspace : int -> workspace
(** [workspace dim] allocates scratch space for [dim]-component state.
    Raises [Invalid_argument] if [dim < 1]. *)

val euler_step : workspace -> deriv -> t_s:float -> dt_s:float -> float array -> unit
(** One forward-Euler step: [y <- y + dt * f(t, y)]. [y] must have the
    workspace dimension; [dt_s] must be positive. O(dt) global error. *)
