(** Case study #4 — computation placement on the BlueField-2 (§4.5;
    Figs 13, 14).

    The five-NF middlebox chain (FW→LB→DPI→NAT→PE) can place each NF
    (except DPI) on the ARM cluster or on its matching hardware
    accelerator. The LogNIC optimizer enumerates the 16 placements per
    packet size and keeps the best-throughput one that does not
    oversubscribe the hardware, which flips decisions with packet size:
    off-chip crossings dominate small packets, ARM per-byte cost
    dominates large ones. *)

type scheme = Arm_only | Accel_only | Lognic_opt

val scheme_name : scheme -> string

val describe_placement : packet_size:float -> string
(** Human-readable LogNIC-opt placement at a packet size, e.g.
    ["FW:accel LB:accel DPI:arm NAT:arm PE:accel"]. *)

type outcome = {
  scheme : scheme;
  packet_size : float;
  throughput : float;  (** carried bytes/s under saturating load *)
  latency : float;  (** mean latency at the 80%-load point, seconds *)
}

val sweep : ?load:float -> ?sizes:float list -> unit -> outcome list
(** Figs 13/14: all three schemes across 64 B..MTU (grouped by size,
    scheme order ARM, Accel, LogNIC-opt). *)
