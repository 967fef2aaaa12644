(** Case study #5 — guiding SmartNIC hardware design on PANIC (§4.6;
    Figs 15–19).

    Three design-space explorations on the PANIC prototype:
    credit (queue) sizing for a compute unit, accelerator-aware traffic
    steering at the central scheduler, and per-unit hardware
    parallelism. *)

(** {1 Scenario 1 — sizing the request queue (Fig 15)} *)

type traffic_profile = { pname : string; sizes : (float * float) list }
(** A bandwidth-equal mix of flow sizes (§4.6: "splits bandwidth across
    different-sized flows equally"). *)

val profiles : traffic_profile list
(** The four §4.6 mixes: 64/512, 64/512/1024, 64/256/512/1500,
    64/128/256/1024/1500. *)

type credit_point = {
  credits : int;
  measured_bandwidth : float;  (** simulator goodput, bytes/s *)
  model_bandwidth : float;  (** model carried rate, bytes/s *)
  model_latency : float;
}

val fig15_credit_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  profile:traffic_profile ->
  unit ->
  credit_point list
(** Goodput as the per-unit credit count sweeps 1..8, offered 85 Gbps
    ({!Study} entry-point conventions; the point with [credits]
    simulates with seed [seed + credits]). *)

val suggest_credits : profile:traffic_profile -> unit -> int
(** The LogNIC suggestion at 85 Gbps: the fewest credits whose model
    goodput is within 7%% of the 8-credit goodput (5/4/4/4 in the
    paper). *)

val latency_drop_vs_default : profile:traffic_profile -> unit -> float
(** Relative model-latency reduction of the suggested credits against
    the 8-credit default (the "21.8%% latency drop" §4.6 reports for
    profile 1). *)

(** {1 Scenario 2 — steering traffic at the scheduler (Figs 16, 17)} *)

type steering_point = {
  split_label : string;
  x_percent : float;  (** share routed to A2, out of the 80% split pool *)
  latency : float;
  throughput : float;
}

val fig16_17_steering : packet_size:float -> unit -> steering_point list
(** Latency and throughput of the four static splits plus the LogNIC
    one, offered 80 Gbps at the given packet size (64 B / 512 B / MTU in
    the paper). *)

(** {1 Scenario 3 — configuring hardware parallelism (Figs 18, 19)} *)

type parallelism_point = {
  degree : int;
  p_latency : float;
  p_throughput : float;
}

val fig18_19_parallelism :
  ?jobs:int -> split:float * float -> unit -> parallelism_point list
(** Latency/throughput of MTU traffic offered at 95 Gbps as IP4's
    parallel degree sweeps 1..8, for an IP1→IP3 / IP1→IP4 split of
    50/50 or 80/20. *)

val suggest_parallelism : split:float * float -> unit -> int
(** The optimizer's degree: fewest engines within 1%% of the best
    throughput (6 and 4 in the paper). *)
