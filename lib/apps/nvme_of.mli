(** Case study #2 — NVMe-oF target on the Broadcom Stingray JBOF
    (§4.3; Figs 6, 7).

    The target-side NVMe-over-RDMA process: NIC cores handle RDMA +
    NVMe submission (IP1), the SSD is an opaque IP (IP2), completion
    cores fabricate responses (IP3). "Measured" numbers come from the
    simulator running the SSD's realistic behaviour (including
    fragmented-drive garbage collection); "model" numbers come from the
    analytic estimate whose SSD parameters a characterization pass
    would produce — worst-case GC baked in, which is what makes the
    model under-predict mixed read/write bandwidth (Fig 7)'s measured
    curve by ≈ 15 %.

    All sweeps follow the {!Study} entry-point conventions
    ([?duration] / [?seed] / [?jobs]); points at index [i] simulate
    with seed [seed + i]. *)

type point = {
  offered : float;  (** offered load, bytes/s *)
  model_latency : float;
  measured_latency : float;
  model_throughput : float;
  measured_throughput : float;
}

val fig6_profile_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  ?points:int ->
  io:Lognic_devices.Ssd.io ->
  unit ->
  point list
(** Latency vs throughput as the ingress rate rises toward the
    profile's saturation: the Fig 6 curves for 4KB-RRD / 128KB-RRD /
    4KB-SWR. *)

val fig6_error_rate : point list -> float
(** Mean relative latency error of the model against the measurement
    over the sweep's stable region (the "<1% error" §4.3 claim). *)

type mixed_point = {
  read_ratio : float;
  measured_bandwidth : float;  (** bytes/s from the GC-aware simulator *)
  model_bandwidth : float;  (** bytes/s from the worst-case-GC model *)
}

val fig7_read_ratio_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  unit ->
  mixed_point list
(** 4 KB random mixed I/O on a fragmented (write-preconditioned) drive
    as the read ratio sweeps 0, 10, 25, 50, 75, 90 and 100 %. *)

val calibration_demo :
  ?duration:float ->
  ?seed:int ->
  io:Lognic_devices.Ssd.io ->
  unit ->
  Lognic.Calibrate.opaque_ip
(** Runs the §4.3 characterize-and-curve-fit procedure against the
    simulated drive: sweep the load, measure (rate, latency), fit the
    open-queue latency curve, return the recovered parameters. *)
