module G = Lognic.Graph
module U = Lognic.Units

let line_rate = 3200. *. U.gbps
let pipeline_pps = 1.2e9
(* Seconds a packet spends traversing the pipeline, independent of
   load. *)
let pipeline_depth = 400e-9
let register_bandwidth = 400e9 (* bytes/s of stateful SRAM access *)

let hardware =
  Lognic.Params.hardware ~bw_interface:(2. *. line_rate) ~bw_memory:register_bandwidth

let pipeline_service ?(partition = 1.) ~packet_size () =
  (* One packet per pipeline slot: byte throughput scales with size.
     D = depth x pps makes the Eq 7 service time equal the physical
     traversal time while the aggregate rate stays pps-bound. *)
  let throughput = pipeline_pps *. packet_size in
  let stages = max 1 (int_of_float (Float.round (pipeline_depth *. pipeline_pps))) in
  G.service ~throughput ~parallelism:stages ~partition ~queue_capacity:512 ()

let forwarding_graph ?(recirculate = 0.) ?(register_bytes_per_packet = 32.)
    ~packet_size () =
  if recirculate < 0. || recirculate >= 1. then
    invalid_arg "Rmt_switch.forwarding_graph: recirculate outside [0, 1)";
  let beta = register_bytes_per_packet /. packet_size in
  let port = G.service ~throughput:line_rate ~queue_capacity:1024 () in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  (* When packets recirculate, the two passes share the physical
     pipeline: pass 1 serves everything, pass 2 the recirculated
     fraction, partitioned by their work shares. *)
  let share1 = 1. /. (1. +. recirculate) in
  let g, pass1 =
    G.add_vertex ~kind:G.Ip ~label:"pipeline.pass1"
      ~service:(pipeline_service ~partition:share1 ~packet_size ())
      g
  in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  let g = G.add_edge ~delta:1. ~beta ~src:ingress ~dst:pass1 g in
  if recirculate = 0. then G.add_edge ~delta:1. ~src:pass1 ~dst:egress g
  else begin
    let g, pass2 =
      G.add_vertex ~kind:G.Ip ~label:"pipeline.pass2"
        ~service:(pipeline_service ~partition:(1. -. share1) ~packet_size ())
        g
    in
    let g = G.add_edge ~delta:(1. -. recirculate) ~src:pass1 ~dst:egress g in
    let g =
      G.add_edge ~delta:recirculate ~beta:(beta *. recirculate) ~src:pass1
        ~dst:pass2 g
    in
    G.add_edge ~delta:recirculate ~src:pass2 ~dst:egress g
  end
