type t = { lambda : float; mu : float }

let create ~lambda ~mu =
  if lambda <= 0. || mu <= 0. then invalid_arg "Mm1.create: rates must be > 0";
  { lambda; mu }

let utilization t = t.lambda /. t.mu
(* The closed forms below require stability. *)
let stable t = utilization t < 1.

let mean_waiting_time t =
  if stable t then utilization t /. (t.mu -. t.lambda) else infinity
