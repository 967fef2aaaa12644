module G = Lognic.Graph
module U = Lognic.Units

let line_rate = 100. *. U.gbps

let hardware =
  Lognic.Params.hardware ~bw_interface:(800. *. U.gbps) ~bw_memory:(600. *. U.gbps)

(* The prototype's ingress aggregates dual 100G MACs plus the PCIe
   path, so the port engine itself is never the queueing hotspot the
   scenarios probe. *)
let port_service = G.service ~throughput:(2.5 *. line_rate) ~queue_capacity:256 ()

let infra_vertices g =
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port_service g in
  let g, rmt =
    G.add_vertex ~kind:G.Ip ~label:"rmt"
      ~service:(G.service ~throughput:(300. *. U.gbps) ~queue_capacity:128 ())
      g
  in
  let g, sched =
    G.add_vertex ~kind:G.Ip ~label:"sched"
      ~service:(G.service ~throughput:(250. *. U.gbps) ~queue_capacity:128 ())
      g
  in
  (g, ingress, rmt, sched)

(* Model 1 compute units: a parse-heavy unit and a crypto-class unit.
   The per-packet cost term makes small-packet-heavy profiles utilize
   them harder, which is what differentiates the credit requirements of
   the Fig 15 traffic profiles. *)
let unit_a_params = (5.0e-9, 31.3e9)
let unit_b_params = (2.0e-9, 60e9)

(* Under a weighted size mix, a unit whose per-packet time is
   c_pp + s/bw serves offered bytes at the effective rate
   1/(c_pp * E[1/s] + 1/bw): the harmonic-mean packet size drives the
   per-packet cost's contribution. A single-class traffic at the mix's
   mean size against this rate reproduces the unit's aggregate
   utilization exactly. *)
let effective_unit_rate (c_pp, unit_bw) ~sizes =
  let total_w = List.fold_left (fun acc (_, w) -> acc +. w) 0. sizes in
  let inv_size_mean =
    List.fold_left (fun acc (s, w) -> acc +. (w /. s)) 0. sizes /. total_w
  in
  1. /. ((c_pp *. inv_size_mean) +. (1. /. unit_bw))

let pipelined_graph ?(credits = 8) ~sizes () =
  let g, ingress, rmt, sched = infra_vertices G.empty in
  let unit label params g =
    G.add_vertex ~kind:G.Ip ~label
      ~service:
        (G.service
           ~throughput:(effective_unit_rate params ~sizes)
           ~queue_capacity:credits ())
      g
  in
  let g, unit_a = unit "unitA" unit_a_params g in
  let g, unit_b = unit "unitB" unit_b_params g in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port_service g in
  let g = G.add_edge ~delta:1. ~src:ingress ~dst:rmt g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:rmt ~dst:sched g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:sched ~dst:unit_a g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:unit_a ~dst:unit_b g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:unit_b ~dst:egress g in
  g

(* Scenario 2: three accelerators with computing-throughput ratio
   4:7:3, 8 Gbps per ratio unit. *)
let a_ratio_unit = 8. *. U.gbps

let parallelized_graph ?(credits = 8) ~split ~packet_size () =
  let s1, s2, s3 = split in
  if s1 < 0. || s2 < 0. || s3 < 0. || s1 +. s2 +. s3 <= 0. then
    invalid_arg "Panic.parallelized_graph: bad split";
  let total = s1 +. s2 +. s3 in
  let f1 = s1 /. total and f2 = s2 /. total and f3 = s3 /. total in
  let g, ingress, rmt, sched = infra_vertices G.empty in
  let accel label ratio g =
    G.add_vertex ~kind:G.Ip ~label
      ~service:
        (G.service
           ~throughput:(ratio *. a_ratio_unit)
           ~queue_capacity:credits ())
      g
  in
  let g, a1 = accel "A1" 4. g in
  let g, a2 = accel "A2" 7. g in
  let g, a3 = accel "A3" 3. g in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port_service g in
  let g = G.add_edge ~delta:1. ~src:ingress ~dst:rmt g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:rmt ~dst:sched g in
  let g = G.add_edge ~delta:f1 ~alpha:f1 ~src:sched ~dst:a1 g in
  let g = G.add_edge ~delta:f2 ~alpha:f2 ~src:sched ~dst:a2 g in
  let g = G.add_edge ~delta:f3 ~alpha:f3 ~src:sched ~dst:a3 g in
  let g = G.add_edge ~delta:f1 ~alpha:f1 ~src:a1 ~dst:egress g in
  let g = G.add_edge ~delta:f2 ~alpha:f2 ~src:a2 ~dst:egress g in
  let g = G.add_edge ~delta:f3 ~alpha:f3 ~src:a3 ~dst:egress g in
  ignore packet_size;
  g

let ip4_engine_rate = 11.5 *. U.gbps

let hybrid_graph ?(credits = 32) ?(ip4_parallelism = 1) ~ip1_split ~packet_size () =
  let to_ip3, to_ip4 = ip1_split in
  if to_ip3 < 0. || to_ip4 < 0. || to_ip3 +. to_ip4 <= 0. then
    invalid_arg "Panic.hybrid_graph: bad ip1_split";
  let total = to_ip3 +. to_ip4 in
  let f3 = to_ip3 /. total and f4 = to_ip4 /. total in
  (* Ingress splits 70/30 between the two first-stage units. *)
  let w1 = 0.7 and w2 = 0.3 in
  let g, ingress, rmt, sched = infra_vertices G.empty in
  let unit label rate ~credits g =
    G.add_vertex ~kind:G.Ip ~label
      ~service:(G.service ~throughput:rate ~queue_capacity:credits ())
      g
  in
  let g, ip1 = unit "IP1" (80. *. U.gbps) ~credits g in
  let g, ip2 = unit "IP2" (40. *. U.gbps) ~credits g in
  let g, ip3 = unit "IP3" (46. *. U.gbps) ~credits g in
  let g, ip4 =
    G.add_vertex ~kind:G.Ip ~label:"IP4"
      ~service:
        (G.service
           ~throughput:(float_of_int ip4_parallelism *. ip4_engine_rate)
           ~parallelism:ip4_parallelism ~queue_capacity:credits ())
      g
  in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port_service g in
  let g = G.add_edge ~delta:1. ~src:ingress ~dst:rmt g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:rmt ~dst:sched g in
  let g = G.add_edge ~delta:w1 ~alpha:w1 ~src:sched ~dst:ip1 g in
  let g = G.add_edge ~delta:w2 ~alpha:w2 ~src:sched ~dst:ip2 g in
  let g = G.add_edge ~delta:(w1 *. f3) ~alpha:(w1 *. f3) ~src:ip1 ~dst:ip3 g in
  let g = G.add_edge ~delta:(w1 *. f4) ~alpha:(w1 *. f4) ~src:ip1 ~dst:ip4 g in
  let g = G.add_edge ~delta:w2 ~alpha:w2 ~src:ip2 ~dst:ip4 g in
  let g = G.add_edge ~delta:(w1 *. f3) ~alpha:(w1 *. f3) ~src:ip3 ~dst:egress g in
  let g =
    G.add_edge
      ~delta:((w1 *. f4) +. w2)
      ~alpha:((w1 *. f4) +. w2)
      ~src:ip4 ~dst:egress g
  in
  ignore packet_size;
  g
