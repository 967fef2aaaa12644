module G = Lognic.Graph
module D = Lognic_devices

type workload = {
  name : string;
  stages : (string * float) list;
  request_size : float;
}

(* Flow monitoring. *)
let nfv_fin =
  {
    name = "NFV-FIN";
    stages =
      [ ("parse", 2400.); ("flow-lookup", 3600.); ("stats", 2800.); ("export", 2000.) ];
    request_size = 512.;
  }

(* Intrusion detection. *)
let nfv_din =
  {
    name = "NFV-DIN";
    stages =
      [
        ("parse", 2400.); ("reassembly", 4800.); ("detect", 6000.); ("alert", 1600.);
      ];
    request_size = 1024.;
  }

(* Spam filter. *)
let rta_sf =
  {
    name = "RTA-SF";
    stages =
      [
        ("parse", 2000.); ("tokenize", 5600.); ("classify", 6400.); ("verdict", 1200.);
      ];
    request_size = 1024.;
  }

(* Server health monitoring. *)
let rta_shm =
  {
    name = "RTA-SHM";
    stages = [ ("ingest", 1600.); ("aggregate", 3200.); ("threshold", 2400.) ];
    request_size = 256.;
  }

(* IoT data hub. *)
let iot_dh =
  {
    name = "IOT-DH";
    stages =
      [ ("auth", 3600.); ("transform", 4400.); ("store", 4000.); ("ack", 1200.) ];
    request_size = 512.;
  }

let all = [ nfv_fin; nfv_din; rta_sf; rta_shm; iot_dh ]

type scheme = Round_robin | Equal_partition | Lognic_opt

let scheme_name = function
  | Round_robin -> "Round-Robin"
  | Equal_partition -> "Equal-Partition"
  | Lognic_opt -> "LogNIC-Opt"

(* Multiplier on a request's total cycles when one core executes every
   stage back-to-back (instruction-cache and context thrashing across
   heterogeneous stage code; E3's own motivation). *)
let run_to_completion_penalty = 1.45
let total_cores = D.Liquidio.total_cores
let line_rate = D.Liquidio.line_rate

(* All ways of splitting [cores] across [k] stages with >= 1 core each. *)
let compositions cores k =
  let rec go cores k =
    if k = 1 then [ [ cores ] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest) (go (cores - first) (k - 1)))
        (List.init (cores - k + 1) (fun i -> i + 1))
  in
  if k < 1 || cores < k then invalid_arg "Microservices: bad composition"
  else go cores k

let stage_service ~cycles ~cores ~request_size =
  let rate =
    D.Liquidio.microservice_core_rate ~cost_cycles:cycles ~cores *. request_size
  in
  G.service ~throughput:rate ~parallelism:cores ~queue_capacity:64 ()

let pipeline_graph workload cores_per_stage =
  let port = G.service ~throughput:line_rate ~queue_capacity:256 () in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  let g, last =
    List.fold_left2
      (fun (g, prev) (label, cycles) cores ->
        let g, v =
          G.add_vertex ~kind:G.Ip ~label
            ~service:(stage_service ~cycles ~cores ~request_size:workload.request_size)
            g
        in
        let g = G.add_edge ~delta:1. ~alpha:0.2 ~src:prev ~dst:v g in
        (g, v))
      (g, ingress) workload.stages cores_per_stage
  in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  G.add_edge ~delta:1. ~src:last ~dst:egress g

let rtc_graph workload =
  (* One undivided pool running whole requests, paying the
     run-to-completion locality penalty. *)
  let total_cycles =
    List.fold_left (fun acc (_, c) -> acc +. c) 0. workload.stages
    *. run_to_completion_penalty
  in
  let port = G.service ~throughput:line_rate ~queue_capacity:256 () in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  let g, pool =
    G.add_vertex ~kind:G.Ip ~label:"core-pool"
      ~service:
        (stage_service ~cycles:total_cycles ~cores:total_cores
           ~request_size:workload.request_size)
      g
  in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  let g = G.add_edge ~delta:1. ~alpha:0.2 ~src:ingress ~dst:pool g in
  G.add_edge ~delta:1. ~src:pool ~dst:egress g

let traffic_for workload rate =
  Lognic.Traffic.make ~rate ~packet_size:workload.request_size

let capacity_of g =
  Lognic.Throughput.capacity g ~hw:D.Liquidio.hardware

let opt_allocation workload =
  let k = List.length workload.stages in
  let best = ref None in
  List.iter
    (fun alloc ->
      let cap = capacity_of (pipeline_graph workload alloc) in
      match !best with
      | Some (_, best_cap) when best_cap >= cap -> ()
      | _ -> best := Some (alloc, cap))
    (compositions total_cores k);
  match !best with Some (alloc, _) -> alloc | None -> assert false

let allocation scheme workload =
  match scheme with
  | Round_robin -> [ total_cores ]
  | Equal_partition ->
    let k = List.length workload.stages in
    let base = total_cores / k and extra = total_cores mod k in
    List.init k (fun i -> if i < extra then base + 1 else base)
  | Lognic_opt -> opt_allocation workload

let graph scheme workload =
  match scheme with
  | Round_robin -> rtc_graph workload
  | Equal_partition | Lognic_opt ->
    pipeline_graph workload (allocation scheme workload)

type outcome = { scheme : scheme; throughput : float; latency : float }

let evaluate ?(load = 0.8) workload scheme =
  (* Throughput (Fig 11) is each scheme's carried rate under saturating
     offered load; latency (Fig 12) is measured at [load] x the weakest
     scheme's capacity, the same absolute traffic for everyone, so no
     scheme is pushed past saturation into pure drop-bounded numbers. *)
  let capacities =
    List.map
      (fun s -> capacity_of (graph s workload))
      [ Round_robin; Equal_partition; Lognic_opt ]
  in
  let best = List.fold_left Float.max 0. capacities in
  let weakest = List.fold_left Float.min infinity capacities in
  let g = graph scheme workload in
  let saturated =
    Lognic.Throughput.evaluate g ~hw:D.Liquidio.hardware
      ~traffic:(traffic_for workload (1.05 *. best))
  in
  let latency_report =
    Lognic.Latency.evaluate ~model:Lognic.Latency.Mmcn_model g
      ~hw:D.Liquidio.hardware
      ~traffic:(traffic_for workload (load *. weakest))
  in
  {
    scheme;
    throughput = saturated.Lognic.Throughput.attained /. workload.request_size;
    latency = latency_report.Lognic.Latency.mean;
  }

let compare_schemes ?load workload =
  List.map (evaluate ?load workload) [ Round_robin; Equal_partition; Lognic_opt ]

(* NIC/host hybrid placement (§4.4's migration path). *)

let hybrid_graph workload ~split_at =
  let stages = workload.stages in
  let k = List.length stages in
  if split_at < 0 || split_at > k then
    invalid_arg "Microservices.hybrid_graph: split_at outside [0, stages]";
  let nic_stages = List.filteri (fun i _ -> i < split_at) stages in
  let host_stages = List.filteri (fun i _ -> i >= split_at) stages in
  let port = G.service ~throughput:line_rate ~queue_capacity:256 () in
  let g = G.empty in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  (* NIC prefix: each stage is a virtual IP of the 16-core cluster with
     a cost-proportional gamma, so the prefix capacity is exactly the
     cluster's pipelined rate over the prefix cost. *)
  let nic_total = List.fold_left (fun acc (_, c) -> acc +. c) 0. nic_stages in
  let g, nic_last =
    List.fold_left
      (fun (g, prev) (label, cycles) ->
        let gamma = Float.max 1e-3 (Float.min 0.999 (cycles /. nic_total)) in
        let engines =
          max 1 (int_of_float (Float.round (gamma *. float_of_int total_cores)))
        in
        let full_rate =
          D.Liquidio.microservice_core_rate ~cost_cycles:cycles ~cores:total_cores
          *. workload.request_size
        in
        let g, v =
          G.add_vertex ~kind:G.Ip ~label:("nic." ^ label)
            ~service:
              (G.service ~throughput:full_rate ~partition:gamma
                 ~parallelism:engines ~queue_capacity:64 ())
            g
        in
        (G.add_edge ~delta:1. ~alpha:0.2 ~src:prev ~dst:v g, v))
      (g, ingress) nic_stages
  in
  (* the PCIe crossing: a dedicated link plus the driver latency as O *)
  let g, nic_last =
    if host_stages = [] then (g, nic_last)
    else begin
      let g =
        G.update_service g nic_last (fun s ->
            { s with G.overhead = s.G.overhead +. D.Host.pcie_latency })
      in
      (g, nic_last)
    end
  in
  (* host suffix: the migration budget split cost-proportionally *)
  let host_total = List.fold_left (fun acc (_, c) -> acc +. c) 0. host_stages in
  let g, last, crossing =
    List.fold_left
      (fun (g, prev, crossing) (label, cycles) ->
        let cores =
          max 1
            (int_of_float
               (Float.round
                  (float_of_int D.Host.available_cores *. cycles /. host_total)))
        in
        let cores = min cores D.Host.available_cores in
        let g, v =
          G.add_vertex ~kind:G.Ip ~label:("host." ^ label)
            ~service:
              (D.Host.stage_service ~cost_cycles:cycles ~cores
                 ~request_size:workload.request_size)
            g
        in
        let g =
          if crossing then
            G.add_edge ~delta:1. ~bandwidth:D.Host.pcie_bandwidth ~src:prev
              ~dst:v g
          else G.add_edge ~delta:1. ~src:prev ~dst:v g
        in
        (g, v, false))
      (g, nic_last, host_stages <> []) host_stages
  in
  ignore crossing;
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  G.add_edge ~delta:1. ~src:last ~dst:egress g

let hybrid_capacity workload ~split_at =
  capacity_of (hybrid_graph workload ~split_at)

let best_hybrid_split workload =
  let k = List.length workload.stages in
  (* split_at = k is NIC-only; 0 moves the whole chain to the host *)
  let best, _ =
    Lognic_numerics.Grid.maximize_int
      ~f:(fun s -> hybrid_capacity workload ~split_at:s)
      ~lo:0 ~hi:k ()
  in
  best

let hybrid_gain workload =
  let nic_only = capacity_of (graph Lognic_opt workload) in
  hybrid_capacity workload ~split_at:(best_hybrid_split workload) /. nic_only

(* Energy efficiency (E3's headline axis). *)

type energy_report = {
  placement : string;
  capacity_rps : float;
  watts : float;
  rps_per_watt : float;
}

let energy_comparison workload =
  let rps_of_capacity bytes = bytes /. workload.request_size in
  let report placement capacity_bytes watts =
    let capacity_rps = rps_of_capacity capacity_bytes in
    {
      placement;
      capacity_rps;
      watts;
      rps_per_watt = D.Power.efficiency ~requests_per_s:capacity_rps ~watts;
    }
  in
  let nic_capacity = capacity_of (graph Lognic_opt workload) in
  let nic =
    report "nic" nic_capacity
      (D.Power.nic_power ~busy_cores:(float_of_int total_cores))
  in
  let host_capacity = hybrid_capacity workload ~split_at:0 in
  let host =
    report "host" host_capacity
      (D.Power.host_power ~busy_cores:(float_of_int D.Host.available_cores))
  in
  let split = best_hybrid_split workload in
  let hybrid_capacity_bytes = hybrid_capacity workload ~split_at:split in
  let host_share =
    if split >= List.length workload.stages then 0.
    else float_of_int D.Host.available_cores
  in
  let hybrid =
    report "hybrid" hybrid_capacity_bytes
      (D.Power.nic_power ~busy_cores:(float_of_int total_cores)
      +. (if host_share > 0. then D.Power.host_power ~busy_cores:host_share else 0.))
  in
  [ nic; host; hybrid ]
