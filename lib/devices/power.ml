(* Watts per busy cnMIPS core. *)
let nic_core_active = 1.2
(* SmartNIC base draw (memory, MACs, fabric), watts. *)
let nic_base = 8.
(* Watts per busy Xeon core (amortized share of package power). *)
let host_core_active = 12.
(* Host share attributable to keeping cores available, watts. *)
let host_base = 20.

let nic_power ~busy_cores =
  if busy_cores < 0. then invalid_arg "Power.nic_power: negative cores";
  nic_base +. (nic_core_active *. busy_cores)

let host_power ~busy_cores =
  if busy_cores < 0. then invalid_arg "Power.host_power: negative cores";
  host_base +. (host_core_active *. busy_cores)

let efficiency ~requests_per_s ~watts =
  if watts <= 0. then invalid_arg "Power.efficiency: watts must be > 0";
  requests_per_s /. watts
