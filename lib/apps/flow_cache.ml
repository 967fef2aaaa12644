module G = Lognic.Graph
module L = Lognic_devices.Liquidio

type config = {
  packet_size : float;
  emc_cores : int;
  megaflow_cores : int;
  slowpath_cores : int;
  emc_cost_cycles : float;
  megaflow_cost_cycles : float;
  slowpath_cost_cycles : float;
  slowpath_overhead : float;
}

let default =
  {
    packet_size = 512.;
    emc_cores = 4;
    megaflow_cores = 8;
    slowpath_cores = 4;
    (* hash + one cache-line compare; tuple-space search over a handful
       of masks; full OpenFlow classification plus upcall marshalling *)
    emc_cost_cycles = 300.;
    megaflow_cost_cycles = 1500.;
    slowpath_cost_cycles = 20000.;
    slowpath_overhead = 20e-6;
  }

let stage_service ~cores ~cost_cycles ~queue_capacity ~packet_size ?overhead ()
    =
  G.service
    ~throughput:
      (L.microservice_core_rate ~cost_cycles ~cores *. packet_size)
    ~parallelism:cores ~queue_capacity ?overhead ()

(* Initial hit ratios at both caches; [megaflow_hit] is conditional on
   an EMC miss. *)
let emc_hit = 0.5
let megaflow_hit = 0.5

let graph config =
  let size = config.packet_size in
  let port = G.service ~throughput:L.line_rate ~queue_capacity:1024 () in
  let g = G.empty in
  let g, rx = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  let g, emc =
    G.add_vertex ~kind:G.Ip ~label:Lognic.Flowcache.emc_label
      ~service:
        (stage_service ~cores:config.emc_cores
           ~cost_cycles:config.emc_cost_cycles ~queue_capacity:512
           ~packet_size:size ())
      g
  in
  let g, mega =
    G.add_vertex ~kind:G.Ip ~label:Lognic.Flowcache.megaflow_label
      ~service:
        (stage_service ~cores:config.megaflow_cores
           ~cost_cycles:config.megaflow_cost_cycles ~queue_capacity:512
           ~packet_size:size ())
      g
  in
  let g, slow =
    G.add_vertex ~kind:G.Ip ~label:"slowpath"
      ~service:
        (stage_service ~cores:config.slowpath_cores
           ~cost_cycles:config.slowpath_cost_cycles ~queue_capacity:256
           ~packet_size:size ~overhead:config.slowpath_overhead ())
      g
  in
  let g, tx = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  let emc_miss = 1. -. emc_hit in
  let mega_hit = emc_miss *. megaflow_hit in
  let mega_miss = emc_miss *. (1. -. megaflow_hit) in
  (* every packet hashes into the EMC: one 64 B bucket probe over CMI *)
  let g = G.add_edge ~delta:1. ~beta:(64. /. size) ~src:rx ~dst:emc g in
  (* cache-vertex convention: the HIT route is the first out-edge added,
     the miss route the second — Flowcache.evaluate and the simulator's
     per-packet lookup both route by that order, not by δ *)
  let g = G.add_edge ~delta:emc_hit ~src:emc ~dst:tx g in
  (* a tuple-space search walks ~4 subtable masks of 64 B each *)
  let g =
    G.add_edge ~delta:emc_miss
      ~beta:(emc_miss *. (256. /. size))
      ~src:emc ~dst:mega g
  in
  let g = G.add_edge ~delta:mega_hit ~src:mega ~dst:tx g in
  (* the slow-path round trip crosses the I/O interconnect both ways *)
  let g =
    G.add_edge ~delta:mega_miss ~alpha:(2. *. mega_miss) ~src:mega ~dst:slow g
  in
  G.add_edge ~delta:mega_miss ~src:slow ~dst:tx g

let hardware = L.hardware

let traffic ?(load = 0.5) config =
  if not (Float.is_finite load && load > 0.) then
    invalid_arg "Flow_cache.traffic: load must be > 0";
  Lognic.Traffic.make
    ~rate:(load *. L.line_rate)
    ~packet_size:config.packet_size
