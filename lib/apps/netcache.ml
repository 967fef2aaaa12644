module G = Lognic.Graph
module U = Lognic.Units
module Sw = Lognic_devices.Rmt_switch

type config = {
  request_size : float;
  value_bytes : float;
  server_rate : float;
  server_think : float;
}

let default =
  {
    request_size = 128.;
    value_bytes = 128.;
    server_rate = 4e6;
    server_think = 8e-6;
  }

let graph ?(hit_ratio = 0.5) config =
  if hit_ratio < 0. || hit_ratio > 1. then
    invalid_arg "Netcache.graph: hit_ratio outside [0, 1]";
  let size = config.request_size in
  let port = G.service ~throughput:Sw.line_rate ~queue_capacity:1024 () in
  (* Misses traverse the pipeline twice (query in, response out), hits
     once; the physical pipeline is partitioned by work share. *)
  let miss = 1. -. hit_ratio in
  (* shares are clamped away from the {0, 1} endpoints so the
     degenerate all-hit graph still type-checks as a partition *)
  let pass1_share = Float.min 0.999 (1. /. (1. +. miss)) in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  let g, lookup =
    G.add_vertex ~kind:G.Ip ~label:"switch.lookup"
      ~service:(Sw.pipeline_service ~partition:pass1_share ~packet_size:size ())
      g
  in
  let g, server =
    G.add_vertex ~kind:G.Ip ~label:"server"
      ~service:
        (G.service
           ~throughput:(config.server_rate *. size)
           ~parallelism:
             (max 1
                (int_of_float
                   (Float.round (config.server_rate *. config.server_think))))
           ~queue_capacity:512 ()
           )
      g
  in
  let g, reply_pass =
    G.add_vertex ~kind:G.Ip ~label:"switch.reply"
      ~service:(Sw.pipeline_service ~partition:(1. -. pass1_share) ~packet_size:size ())
      g
  in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  (* every request reads the cache index; hits also read the value *)
  let index_beta = 16. /. size in
  let hit_beta = hit_ratio *. (config.value_bytes /. size) in
  let g = G.add_edge ~delta:1. ~beta:(index_beta +. hit_beta) ~src:ingress ~dst:lookup g in
  (* hit path: straight back out *)
  let g =
    if hit_ratio > 0. then G.add_edge ~delta:hit_ratio ~src:lookup ~dst:egress g
    else g
  in
  (* miss path: server, then the reply pass *)
  if miss > 0. then begin
    let g = G.add_edge ~delta:miss ~alpha:miss ~src:lookup ~dst:server g in
    let g = G.add_edge ~delta:miss ~alpha:miss ~src:server ~dst:reply_pass g in
    G.add_edge ~delta:miss ~src:reply_pass ~dst:egress g
  end
  else begin
    (* degenerate all-hit case: keep the reply pass reachable *)
    let g = G.add_edge ~delta:1e-9 ~src:lookup ~dst:server g in
    let g = G.add_edge ~delta:1e-9 ~src:server ~dst:reply_pass g in
    G.add_edge ~delta:1e-9 ~src:reply_pass ~dst:egress g
  end

type point = {
  hit_ratio : float;
  model_rps : float;
  measured_rps : float;
  model_latency : float;
  server_share : float;
}

let sustainable_rps ?hit_ratio config =
  let g = graph ?hit_ratio config in
  Lognic.Throughput.capacity g ~hw:Sw.hardware /. config.request_size

let swept_hit_ratios = [ 0.; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let hit_ratio_sweep ?(duration = 0.02) ?(seed = 71) ?jobs config =
  Lognic_numerics.Parallel.map ?jobs
    (fun (i, hit_ratio) ->
      let g = graph ~hit_ratio config in
      let capacity_rps = sustainable_rps ~hit_ratio config in
      let saturating =
        Lognic.Traffic.make
          ~rate:(1.1 *. capacity_rps *. config.request_size)
          ~packet_size:config.request_size
      in
      let m =
        Lognic_sim.Netsim.(
          execute
            (Run.make
               ~config:(Study.sim_config ~seed:(seed + i) duration)
               g ~hw:Sw.hardware
               ~mix:[ (saturating, 1.) ]))
      in
      let comfortable =
        Lognic.Traffic.make
          ~rate:(0.7 *. capacity_rps *. config.request_size)
          ~packet_size:config.request_size
      in
      let latency =
        (Lognic.Latency.evaluate ~model:Lognic.Latency.Mmcn_model g
           ~hw:Sw.hardware ~traffic:comfortable)
          .Lognic.Latency.mean
      in
      {
        hit_ratio;
        model_rps = capacity_rps;
        measured_rps =
          m.summary.Lognic_sim.Telemetry.throughput /. config.request_size;
        model_latency = latency;
        server_share = 1. -. hit_ratio;
      })
    (List.mapi (fun i r -> (i, r)) swept_hit_ratios)

let speedup_at ~hit_ratio config =
  sustainable_rps ~hit_ratio config /. sustainable_rps ~hit_ratio:0. config
