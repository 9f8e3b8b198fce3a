type deriv = t_s:float -> y:float array -> dy:float array -> unit

(* The derivative array the step writes into. *)
type workspace = float array

let workspace n =
  if n < 1 then invalid_arg "Ode.workspace: dimension must be positive";
  Array.make n 0.0

let euler_step dy f ~t_s ~dt_s y =
  if dt_s <= 0.0 then invalid_arg "Ode.euler_step: dt must be positive";
  if Array.length y <> Array.length dy then invalid_arg "Ode.euler_step: state dimension mismatch";
  f ~t_s ~y ~dy;
  for i = 0 to Array.length y - 1 do
    y.(i) <- y.(i) +. (dt_s *. dy.(i))
  done
