(** The host side of a SmartNIC-equipped server (§2.1's PCIe path,
    §4.4's E3 migration target).

    E3's orchestrator migrates Microservices from the NIC to host cores
    when the SmartNIC overloads. The host offers faster cores but the
    crossing costs PCIe bandwidth and latency, and host cores are the
    expensive resource the SmartNIC exists to offload — so only a small
    budget of them is available to rescued stages. *)

val available_cores : int
(** Host cores the orchestrator may draw on (4 — the rest run the
    actual application). *)

val pcie_bandwidth : float
(** Effective PCIe 3.0 x16 data rate, bytes/s. *)

val pcie_latency : float
(** One-way PCIe + driver crossing latency, seconds. *)

val stage_service : cost_cycles:float -> cores:int -> request_size:float -> Lognic.Graph.service
(** A graph vertex for a host-resident stage. *)
