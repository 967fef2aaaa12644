module G = Lognic.Graph
module U = Lognic.Units

type config = {
  line : float;
  soc_rate : float;
  soc_cores : int;
  switch_rate : float;
  soc_transit : float;
  packet_size : float;
}

let default =
  {
    line = 100. *. U.gbps;
    soc_rate = 40. *. U.gbps;
    soc_cores = 8;
    switch_rate = 200. *. U.gbps;
    soc_transit = 2e-6;
    packet_size = U.mtu;
  }

let hw = Lognic.Params.hardware ~bw_interface:(200. *. U.gbps) ~bw_memory:(150. *. U.gbps)

(* On the fast path the SoC cores only shuffle descriptors: ~10x
   cheaper than the full computation. *)
let fast_path_rate config = 10. *. config.soc_rate

let port config = G.service ~throughput:config.line ~queue_capacity:256 ()

let soc_service config ~rate ~share =
  G.service ~throughput:rate ~parallelism:config.soc_cores
    ~partition:(Float.max 0.001 (Float.min 0.999 share))
    ~overhead:config.soc_transit ~queue_capacity:128 ()

(* Everything transits the SoC; only [compute_fraction] of it incurs
   the heavy processing (the rest is fast-path forwarding on the SoC
   cores). *)
let on_path_graph ~compute_fraction config =
  let f = compute_fraction in
  (* the physical SoC splits between heavy compute and fast forwarding,
     partitioned by their work shares *)
  let heavy_work = f /. config.soc_rate in
  let fast_work = (1. -. f) /. fast_path_rate config in
  let heavy_share = heavy_work /. (heavy_work +. fast_work) in
  let g = G.empty in
  let g, rx = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:(port config) g in
  let g, heavy =
    G.add_vertex ~kind:G.Ip ~label:"soc.compute"
      ~service:(soc_service config ~rate:config.soc_rate ~share:heavy_share)
      g
  in
  let g, fast =
    G.add_vertex ~kind:G.Ip ~label:"soc.forward"
      ~service:
        (soc_service config ~rate:(fast_path_rate config) ~share:(1. -. heavy_share))
      g
  in
  let g, tx = G.add_vertex ~kind:G.Egress ~label:"host" ~service:(port config) g in
  let g = G.add_edge ~delta:f ~alpha:f ~src:rx ~dst:heavy g in
  let g = G.add_edge ~delta:(1. -. f) ~alpha:(1. -. f) ~src:rx ~dst:fast g in
  let g = G.add_edge ~delta:f ~alpha:f ~src:heavy ~dst:tx g in
  let g = G.add_edge ~delta:(1. -. f) ~alpha:(1. -. f) ~src:fast ~dst:tx g in
  g

(* The NIC switch forwards [1 - compute_fraction] directly (bypass);
   only the compute share enters the SoC. *)
let off_path_graph ~compute_fraction config =
  let f = compute_fraction in
  let g = G.empty in
  let g, rx = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:(port config) g in
  let g, switch =
    G.add_vertex ~kind:G.Ip ~label:"nic.switch"
      ~service:(G.service ~throughput:config.switch_rate ~queue_capacity:256 ())
      g
  in
  let g, soc =
    G.add_vertex ~kind:G.Ip ~label:"soc.compute"
      ~service:(soc_service config ~rate:config.soc_rate ~share:0.999)
      g
  in
  let g, tx = G.add_vertex ~kind:G.Egress ~label:"host" ~service:(port config) g in
  let g = G.add_edge ~delta:1. ~src:rx ~dst:switch g in
  (* bypass: straight to the host; compute share detours through the SoC *)
  let g = G.add_edge ~delta:(1. -. f) ~src:switch ~dst:tx g in
  let g = G.add_edge ~delta:f ~alpha:f ~src:switch ~dst:soc g in
  let g = G.add_edge ~delta:f ~alpha:f ~src:soc ~dst:tx g in
  g

type point = {
  compute_fraction : float;
  on_path_capacity : float;
  off_path_capacity : float;
  on_path_latency : float;
  off_path_latency : float;
}

let fractions = [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let sweep config =
  List.map
    (fun f ->
      let on = on_path_graph ~compute_fraction:f config in
      let off = off_path_graph ~compute_fraction:f config in
      let cap g = Lognic.Throughput.capacity g ~hw in
      let on_cap = cap on and off_cap = cap off in
      let probe = 0.6 *. Float.min config.line (Float.max on_cap off_cap) in
      let latency g =
        (Lognic.Latency.evaluate ~model:Lognic.Latency.Mmcn_model g ~hw
           ~traffic:(Lognic.Traffic.make ~rate:probe ~packet_size:config.packet_size))
          .Lognic.Latency.mean
      in
      {
        compute_fraction = f;
        on_path_capacity = on_cap;
        off_path_capacity = off_cap;
        on_path_latency = latency on;
        off_path_latency = latency off;
      })
    fractions

let crossover config =
  (* the smallest compute fraction from which the bypass advantage stays
     below 5% for every larger fraction (at tiny fractions both
     deployments sit at line rate, so scanning from the top avoids
     declaring a spurious early crossover) *)
  let points = List.rev (sweep config) in
  let rec scan best = function
    | [] -> best
    | p :: rest ->
      if p.on_path_capacity >= 0.95 *. p.off_path_capacity then
        scan (Some p.compute_fraction) rest
      else best
  in
  scan None points
