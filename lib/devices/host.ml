module G = Lognic.Graph
module U = Lognic.Units

let available_cores = 4
let core_frequency = 2.4e9
(* Cycles a host core needs per cnMIPS cycle of work (a wider
   pipeline, bigger caches). *)
let cycle_efficiency = 0.8
let pcie_bandwidth = 128. *. U.gbps
let pcie_latency = 1.5e-6

(* Requests/s of [cores] host cores running a stage whose cnMIPS cost
   is [cost_cycles]. *)
let stage_rate ~cost_cycles ~cores =
  if cost_cycles <= 0. then invalid_arg "Host.stage_rate: cost must be > 0";
  if cores < 1 || cores > available_cores then
    invalid_arg "Host.stage_rate: cores outside the migration budget";
  float_of_int cores *. core_frequency /. (cycle_efficiency *. cost_cycles)

let stage_service ~cost_cycles ~cores ~request_size =
  G.service
    ~throughput:(stage_rate ~cost_cycles ~cores *. request_size)
    ~parallelism:cores ~queue_capacity:64 ()
