(** On-path vs off-path SmartNIC deployment (§2.1).

    On-path SmartNICs (LiquidIO, Agilio, Pensando, Fungible) put the
    execution engines on the communication path: every packet pays the
    SoC transit. Off-path SmartNICs (BlueField, Stingray) expose a NIC
    switch with a {e bypass path}: flows matching forwarding rules go
    straight from the traffic manager to the host, only the rest enter
    the SoC. This study models both deployments of the same workload —
    a fraction [f] of traffic needs SoC computation, the rest is pure
    forwarding — and sweeps [f] to find the crossover the §2.1
    taxonomy implies: off-path wins when most traffic can bypass;
    on-path's single data path is simpler and no worse once everything
    needs computing anyway. *)

type config = {
  line : float;  (** port rate, bytes/s *)
  soc_rate : float;  (** SoC processing capacity, bytes/s *)
  soc_cores : int;
  switch_rate : float;  (** NIC-switch / traffic-manager rate, bytes/s *)
  soc_transit : float;  (** per-packet SoC handling overhead O, seconds *)
  packet_size : float;
}

val default : config
(** A 100 GbE card with a 40 Gbps 8-core SoC and a 200 Gbps NIC
    switch. *)

type point = {
  compute_fraction : float;
  on_path_capacity : float;  (** bytes/s *)
  off_path_capacity : float;
  on_path_latency : float;  (** mean at 60% of the better capacity *)
  off_path_latency : float;
}

val sweep : config -> point list
(** Compute fractions 0.05, 0.1, 0.2, 0.4, 0.6, 0.8 and 1. *)

val crossover : config -> float option
(** The smallest swept compute fraction from which on-path's capacity
    stays within 5%% of off-path's for all larger fractions — where the
    bypass advantage has evaporated for good. [None] if off-path keeps a
    material advantage through f = 1. *)
