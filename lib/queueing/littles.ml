
let consistent ?(tol = 0.05) ~arrival_rate ~time_in_system ~number_in_system () =
  let expected = arrival_rate *. time_in_system in
  if expected = 0. then number_in_system = 0.
  else abs_float (number_in_system -. expected) /. expected <= tol
