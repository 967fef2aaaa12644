type t = { lambda : float; mu : float; scv : float }

let create ~lambda ~mu ~scv =
  if lambda <= 0. || mu <= 0. then invalid_arg "Mg1.create: rates must be > 0";
  if scv < 0. then invalid_arg "Mg1.create: scv must be >= 0";
  { lambda; mu; scv }

let of_service_mix ~lambda ~services =
  let total_w = List.fold_left (fun acc (_, w) -> acc +. w) 0. services in
  if total_w <= 0. then invalid_arg "Mg1.of_service_mix: zero total weight";
  if List.exists (fun (s, w) -> s <= 0. || w < 0.) services then
    invalid_arg "Mg1.of_service_mix: services must be positive, weights >= 0";
  let mean =
    List.fold_left (fun acc (s, w) -> acc +. (s *. w)) 0. services /. total_w
  in
  let second =
    List.fold_left (fun acc (s, w) -> acc +. (s *. s *. w)) 0. services /. total_w
  in
  let variance = Float.max 0. (second -. (mean *. mean)) in
  create ~lambda ~mu:(1. /. mean) ~scv:(variance /. (mean *. mean))

let utilization t = t.lambda /. t.mu

let mean_waiting_time t =
  let rho = utilization t in
  if rho >= 1. then infinity
  else rho *. (1. +. t.scv) /. (2. *. t.mu *. (1. -. rho))

let mm1_underestimate t = (1. +. t.scv) /. 2.
