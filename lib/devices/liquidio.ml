module G = Lognic.Graph
module U = Lognic.Units

let line_rate = 25. *. U.gbps
let total_cores = 16
let cmi_bandwidth = 50. *. U.gbps
let io_bandwidth = 40. *. U.gbps
let core_frequency = 1.5e9

let l2_fill_bandwidth = 30. *. U.gbps
let dram_bandwidth = 25.6e9

let hardware =
  (* Beyond the two modeled media, co-located graphs contend for the
     shared L2 fill path and the single DDR3 channel; the contention
     layer prices those through the resource vector. *)
  Lognic.Params.with_resources
    (Lognic.Params.hardware ~bw_interface:io_bandwidth ~bw_memory:cmi_bandwidth)
    [ ("l2-fill", l2_fill_bandwidth); ("dram", dram_bandwidth) ]

(* P (bytes/s of consumed traffic) of a NIC-core cluster of [cores]
   cores driving the given accelerator at the given packet size. *)
let core_rate_bytes ~(spec : Accel_spec.t) ~cores ~packet_size =
  float_of_int cores *. spec.core_issue_ops *. packet_size

(* P of the accelerator itself: one operation per packet. *)
let accel_rate_bytes ~(spec : Accel_spec.t) ~packet_size =
  spec.peak_ops *. packet_size

let inline_accel_graph ?(cores = total_cores) ?granularity ~(spec : Accel_spec.t)
    ~packet_size () =
  if cores < 1 || cores > total_cores then
    invalid_arg "Liquidio.inline_accel_graph: cores out of range";
  let granularity = Option.value granularity ~default:packet_size in
  (* Fraction of W each accelerator call moves over its medium: g_acc
     bytes per packet of size g_in. *)
  let medium_fraction = granularity /. packet_size in
  let alpha, beta =
    match spec.medium with
    | Accel_spec.Io_interconnect -> (medium_fraction, 0.)
    | Accel_spec.Cmi -> (0., medium_fraction)
  in
  let port_service = G.service ~throughput:line_rate ~queue_capacity:128 () in
  (* Submission and completion run on the same cores (paper §4.2 note:
     IP3 holds the same parallelism as IP1), so each side owns half the
     cluster via the partition parameter; the parallelism degree D is
     the core count so per-request service time reflects one core's
     issue latency (Eq 7). *)
  let core_service =
    G.service
      ~throughput:(core_rate_bytes ~spec ~cores ~packet_size)
      ~partition:0.5 ~parallelism:cores ~overhead:spec.issue_overhead
      ~queue_capacity:64 ()
  in
  let accel_work_rate =
    (* The engine consumes [granularity] bytes per op, so in units of
       packet traffic its rate stays peak_ops * packet_size but the
       medium ceilings (alpha/beta) tighten as granularity grows. *)
    accel_rate_bytes ~spec ~packet_size
  in
  let accel_service =
    G.service ~throughput:accel_work_rate ~queue_capacity:32 ()
  in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port_service g in
  let g, ip1 = G.add_vertex ~kind:G.Ip ~label:"ip1.cores" ~service:core_service g in
  let g, ip2 =
    G.add_vertex ~kind:G.Ip ~label:("ip2." ^ spec.name) ~service:accel_service g
  in
  let g, ip3 = G.add_vertex ~kind:G.Ip ~label:"ip3.cores" ~service:core_service g in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port_service g in
  (* Only the submission edge moves the [granularity]-sized fetch over
     the engine's medium; the completion side returns a digest /
     descriptor whose cost is folded into O_IP1 (this is what makes the
     Fig 5 ratios land where the paper reports them). *)
  let g = G.add_edge ~delta:1. ~src:ingress ~dst:ip1 g in
  let g = G.add_edge ~delta:1. ~alpha ~beta ~src:ip1 ~dst:ip2 g in
  let g = G.add_edge ~delta:1. ~src:ip2 ~dst:ip3 g in
  let g = G.add_edge ~delta:1. ~src:ip3 ~dst:egress g in
  g

let microservice_core_rate ~cost_cycles ~cores =
  if cost_cycles <= 0. then
    invalid_arg "Liquidio.microservice_core_rate: cost must be > 0";
  float_of_int cores *. core_frequency /. cost_cycles
