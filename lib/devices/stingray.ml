module G = Lognic.Graph
module U = Lognic.Units

let line_rate = 100. *. U.gbps
let total_cores = 8
let core_frequency = 3.0e9
(* SoC interconnect bandwidth backing the model's interface medium. *)
let soc_interconnect = 150. *. U.gbps
let dram_bandwidth = 19.2e9 (* DDR4-2400 single channel, bytes/s *)

let hardware =
  Lognic.Params.hardware ~bw_interface:soc_interconnect ~bw_memory:dram_bandwidth

(* ~6.6k cycles of RDMA + NVMe protocol work to submit an I/O, ~4.5k to
   complete one; at 3 GHz that is 2.2 us and 1.5 us per I/O. *)
let submission_cost = 6600. /. core_frequency
(* Core seconds per I/O on the completion path. *)
let completion_cost = 4500. /. core_frequency

let nvme_of_graph ?(gc = Ssd.Gc_none) ~(io : Ssd.io) () =
  let ssd = Ssd.default in
  let eff = Ssd.effective ssd ~io ~gc in
  let io_size = io.Ssd.io_size in
  let port_service = G.service ~throughput:line_rate ~queue_capacity:256 () in
  (* Submission and completion paths share the 8-core cluster equally. *)
  let core_rate cost = float_of_int total_cores *. io_size /. cost in
  let submission_service =
    G.service
      ~throughput:(core_rate submission_cost)
      ~partition:0.5 ~parallelism:total_cores ~overhead:0.5e-6
      ~queue_capacity:128 ()
  in
  let completion_service =
    G.service
      ~throughput:(core_rate completion_cost)
      ~partition:0.5 ~parallelism:total_cores ~overhead:0.5e-6
      ~queue_capacity:128 ()
  in
  let ssd_rate_per_stream =
    (* Per in-flight IO the drive serves io_size bytes in service_time;
       D = parallelism streams share the aggregate. *)
    io_size /. eff.Ssd.service_time
  in
  let ssd_service =
    G.service
      ~throughput:(ssd_rate_per_stream *. float_of_int ssd.Ssd.parallelism)
      ~parallelism:ssd.Ssd.parallelism ~queue_capacity:256 ()
  in
  (* The drive's shared internal bus is itself a serialization point
     with its own queueing near saturation (visible in the 128KB
     profiles), so it appears as an IP vertex rather than a bare
     bandwidth annotation. *)
  let bus_service =
    G.service ~throughput:eff.Ssd.bus_bandwidth ~queue_capacity:128 ()
  in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"eth.rx" ~service:port_service g in
  let g, ip1 =
    G.add_vertex ~kind:G.Ip ~label:"ip1.submission" ~service:submission_service g
  in
  let g, bus = G.add_vertex ~kind:G.Ip ~label:"ip2.ssd.bus" ~service:bus_service g in
  let g, ip2 = G.add_vertex ~kind:G.Ip ~label:"ip2.ssd" ~service:ssd_service g in
  let g, ip3 =
    G.add_vertex ~kind:G.Ip ~label:"ip3.completion" ~service:completion_service g
  in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"eth.tx" ~service:port_service g in
  (* Figure 2(c): edges 1/4 via SoC interconnect; edges 2/3 via
     interconnect + DRAM. *)
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:ingress ~dst:ip1 g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~beta:1. ~src:ip1 ~dst:bus g in
  let g = G.add_edge ~delta:1. ~src:bus ~dst:ip2 g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~beta:1. ~src:ip2 ~dst:ip3 g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:ip3 ~dst:egress g in
  g
