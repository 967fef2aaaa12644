(** Case study #3 — Microservice parallelism tuning on E3 / LiquidIO
    (§4.4; Figs 11, 12).

    E3 runs each Microservice as a multi-threaded stage of a service
    chain on the SmartNIC's 16 cnMIPS cores. Its default scheduler
    forwards each request to an available core round-robin and runs the
    whole chain to completion there, paying a locality penalty for
    hopping between heterogeneous stage code on one core. The
    alternatives partition cores per stage: either equally, or — with
    the LogNIC optimizer — proportionally to each stage's measured
    working set, which is what yields the paper's ≈35 % throughput and
    ≈22 % latency gains. *)

type workload = {
  name : string;
  stages : (string * float) list;  (** stage label, cycles per request *)
  request_size : float;  (** bytes handed between stages *)
}

val all : workload list

type scheme = Round_robin | Equal_partition | Lognic_opt

val scheme_name : scheme -> string

val allocation : scheme -> workload -> int list
(** Cores per stage under the scheme (total ≤ 16). [Round_robin]
    returns a single entry — the undivided pool. [Lognic_opt]
    exhaustively searches stage-core compositions through the model. *)

type outcome = {
  scheme : scheme;
  throughput : float;  (** requests/s carried under saturating load *)
  latency : float;  (** model mean latency at the 80%-load point, seconds *)
}

val compare_schemes : ?load:float -> workload -> outcome list
(** All three schemes on one workload. *)

(** {1 NIC/host hybrid placement}

    §4.4's E3 migrates overloaded Microservices to the host. The hybrid
    placement keeps a chain prefix on the NIC cores and moves the
    suffix across PCIe onto a small budget of host cores
    ({!Lognic_devices.Host}); a single crossing point keeps the PCIe
    tax to one traversal. *)

val hybrid_graph : workload -> split_at:int -> Lognic.Graph.t
(** Stages with index < [split_at] stay on the 16 NIC cores (allocated
    cost-proportionally); the rest run on the host behind a PCIe edge.
    [split_at = stage count] is NIC-only; [split_at = 0] moves
    everything. Raises [Invalid_argument] outside [0, stages]. *)

val best_hybrid_split : workload -> int
(** The capacity-maximizing crossing point (model search). *)

val hybrid_gain : workload -> float
(** Capacity of the best hybrid over the NIC-only LogNIC-opt
    allocation: > 1 when migration helps. *)

(** {1 Energy efficiency}

    E3's headline axis: requests per joule. NIC cores are an order of
    magnitude cheaper per cycle than host cores
    ({!Lognic_devices.Power}), which is why offloading wins even when a
    host-only deployment has higher raw capacity. *)

type energy_report = {
  placement : string;  (** "nic", "host", or "hybrid" *)
  capacity_rps : float;
  watts : float;  (** at saturation (all allocated cores busy) *)
  rps_per_watt : float;
}

val energy_comparison : workload -> energy_report list
(** NIC-only (LogNIC-opt allocation), host-only (same chain on
    {!Lognic_devices.Host.available_cores} host cores), and the best
    hybrid — each at its own saturated capacity. *)
