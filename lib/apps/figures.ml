module U = Lognic.Units
module D = Lognic_devices

type speed = Quick | Full

let duration = function Quick -> 0.01 | Full -> 0.02

(* High-pps PANIC mixes: tens of Mpps make even short horizons
   statistically dense. *)
let panic_duration = function Quick -> 0.003 | Full -> 0.008
let long_duration = function Quick -> 0.1 | Full -> 0.3

let header = Study.header

let fig5 ?(speed = Full) ppf =
  header ppf
    "Figure 5: accelerator throughput (MOPS) vs data access granularity (1KB traffic)"
    [ "accel"; "granularity(B)"; "model"; "measured"; "%of-peak" ];
  List.iter
    (fun spec ->
      let points =
        Inline_accel.fig5_granularity_sweep ~duration:(duration speed) ~spec ()
      in
      let peak =
        List.fold_left (fun acc (p : Inline_accel.point) -> Float.max acc p.model) 0. points
      in
      List.iter
        (fun (p : Inline_accel.point) ->
          Fmt.pf ppf "%-5s %8.0f  %6.3f  %6.3f  %5.1f%%@."
            spec.D.Accel_spec.name p.x (U.to_mops p.model) (U.to_mops p.measured)
            (100. *. p.model /. peak))
        points)
    [ D.Accel_spec.crc; D.Accel_spec.des3; D.Accel_spec.md5; D.Accel_spec.hfa ]

let fig6 ?(speed = Full) ppf =
  header ppf "Figure 6: NVMe-oF latency (us) vs throughput (GB/s)"
    [ "profile"; "offered(GB/s)"; "model(us)"; "measured(us)" ];
  List.iter
    (fun (name, io) ->
      let points =
        Nvme_of.fig6_profile_sweep ~duration:(long_duration speed) ~points:8
          ~io ()
      in
      List.iter
        (fun (p : Nvme_of.point) ->
          Fmt.pf ppf "%-9s %7.2f  %8.1f  %8.1f@." name (p.offered /. 1e9)
            (U.to_usec p.model_latency)
            (U.to_usec p.measured_latency))
        points;
      Fmt.pf ppf "%-9s mean latency error: %.2f%%@." name
        (100. *. Nvme_of.fig6_error_rate points))
    [
      ("4KB-RRD", D.Ssd.rrd_4k);
      ("128KB-RRD", D.Ssd.rrd_128k);
      ("4KB-SWR", D.Ssd.swr_4k);
    ]

let fig7 ?(speed = Full) ppf =
  header ppf "Figure 7: 4KB random mixed I/O bandwidth (MB/s) vs read ratio"
    [ "read%"; "measured(MB/s)"; "model(MB/s)"; "gap%" ];
  List.iter
    (fun (p : Nvme_of.mixed_point) ->
      Fmt.pf ppf "%5.0f  %8.0f  %8.0f  %5.1f%%@."
        (100. *. p.read_ratio)
        (U.to_mbytes_per_s p.measured_bandwidth)
        (U.to_mbytes_per_s p.model_bandwidth)
        (100. *. (p.measured_bandwidth -. p.model_bandwidth)
        /. p.measured_bandwidth))
    (Nvme_of.fig7_read_ratio_sweep ~duration:(long_duration speed) ())

let fig9 ?(speed = Full) ppf =
  header ppf "Figure 9: throughput (MOPS) vs IP1 parallelism (MTU line rate)"
    [ "accel"; "cores"; "model"; "measured" ];
  List.iter
    (fun spec ->
      List.iter
        (fun (p : Inline_accel.point) ->
          Fmt.pf ppf "%-7s %4.0f  %6.3f  %6.3f@." spec.D.Accel_spec.name p.x
            (U.to_mops p.model) (U.to_mops p.measured))
        (Inline_accel.fig9_parallelism_sweep ~duration:(duration speed) ~spec ());
      Fmt.pf ppf "%-7s cores to saturate: %d@." spec.D.Accel_spec.name
        (Inline_accel.required_cores ~spec))
    [ D.Accel_spec.md5; D.Accel_spec.kasumi; D.Accel_spec.hfa ]

let fig10 ?(speed = Full) ppf =
  header ppf "Figure 10: achieved bandwidth (Gbps) vs packet size (line rate)"
    [ "accel"; "size(B)"; "model(Gbps)"; "measured(Gbps)" ];
  List.iter
    (fun spec ->
      List.iter
        (fun (p : Inline_accel.point) ->
          Fmt.pf ppf "%-6s %5.0f  %6.2f  %6.2f@." spec.D.Accel_spec.name p.x
            (U.to_gbps p.model) (U.to_gbps p.measured))
        (Inline_accel.fig10_packet_size_sweep ~duration:(duration speed) ~spec ()))
    [
      D.Accel_spec.crc;
      D.Accel_spec.aes;
      D.Accel_spec.md5;
      D.Accel_spec.sha1;
      D.Accel_spec.sms4;
      D.Accel_spec.hfa;
    ]

let microservice_rows ppf value =
  List.iter
    (fun workload ->
      let outcomes = Microservices.compare_schemes workload in
      Fmt.pf ppf "%-8s" workload.Microservices.name;
      List.iter
        (fun (o : Microservices.outcome) ->
          Fmt.pf ppf "  %s=%s" (Microservices.scheme_name o.scheme) (value o))
        outcomes;
      Fmt.pf ppf "@.")
    Microservices.all

let fig11 ppf =
  header ppf "Figure 11: Microservice throughput (MRPS) per allocation scheme" [];
  microservice_rows ppf (fun o ->
      Printf.sprintf "%.3f" (o.Microservices.throughput /. 1e6))

let fig12 ppf =
  header ppf "Figure 12: Microservice average latency (us) per allocation scheme" [];
  microservice_rows ppf (fun o ->
      Printf.sprintf "%.1f" (U.to_usec o.Microservices.latency))

let nf_rows ppf value =
  let outcomes = Nf_chain.sweep () in
  List.iter
    (fun (o : Nf_chain.outcome) ->
      Fmt.pf ppf "%5.0fB  %-16s %s@." o.packet_size (Nf_chain.scheme_name o.scheme)
        (value o))
    outcomes

let fig13 ppf =
  header ppf "Figure 13: NF chain throughput (Gbps) vs packet size" [];
  nf_rows ppf (fun o -> Printf.sprintf "%6.2f" (U.to_gbps o.Nf_chain.throughput));
  List.iter
    (fun size ->
      Fmt.pf ppf "opt placement @%4.0fB: %s@." size
        (Nf_chain.describe_placement ~packet_size:size))
    [ 64.; 512.; U.mtu ]

let fig14 ppf =
  header ppf "Figure 14: NF chain average latency (us) vs packet size" [];
  nf_rows ppf (fun o -> Printf.sprintf "%6.1f" (U.to_usec o.Nf_chain.latency))

let fig15 ?(speed = Full) ppf =
  header ppf "Figure 15: PANIC bandwidth (Gbps) vs provisioned credits"
    [ "profile"; "credits"; "measured"; "model" ];
  List.iter
    (fun profile ->
      List.iter
        (fun (p : Panic_scenarios.credit_point) ->
          Fmt.pf ppf "%-9s %3d  %6.1f  %6.1f@." profile.Panic_scenarios.pname
            p.credits
            (U.to_gbps p.measured_bandwidth)
            (U.to_gbps p.model_bandwidth))
        (Panic_scenarios.fig15_credit_sweep ~duration:(panic_duration speed) ~profile ());
      Fmt.pf ppf "%-9s suggested credits: %d (latency drop vs 8: %.1f%%)@."
        profile.Panic_scenarios.pname
        (Panic_scenarios.suggest_credits ~profile ())
        (100. *. Panic_scenarios.latency_drop_vs_default ~profile ()))
    Panic_scenarios.profiles

let steering_rows ppf value =
  List.iter
    (fun (name, size) ->
      List.iter
        (fun (s : Panic_scenarios.steering_point) ->
          Fmt.pf ppf "%-10s %-7s (X=%4.1f)  %s@." name s.split_label s.x_percent
            (value s))
        (Panic_scenarios.fig16_17_steering ~packet_size:size ()))
    [ ("TP1(64B)", 64.); ("TP2(512B)", 512.); ("TP3(MTU)", U.mtu) ]

let fig16 ppf =
  header ppf "Figure 16: PANIC steering latency (us), static vs LogNIC split" [];
  steering_rows ppf (fun s ->
      Printf.sprintf "%6.2f" (U.to_usec s.Panic_scenarios.latency))

let fig17 ppf =
  header ppf "Figure 17: PANIC steering throughput (Gbps), static vs LogNIC split" [];
  steering_rows ppf (fun s ->
      Printf.sprintf "%6.1f" (U.to_gbps s.Panic_scenarios.throughput))

let parallelism_rows ppf value =
  List.iter
    (fun split ->
      let a, b = split in
      List.iter
        (fun (p : Panic_scenarios.parallelism_point) ->
          Fmt.pf ppf "split %2.0f/%2.0f  degree=%d  %s@." a b p.degree (value p))
        (Panic_scenarios.fig18_19_parallelism ~split ());
      Fmt.pf ppf "split %2.0f/%2.0f  suggested degree: %d@." a b
        (Panic_scenarios.suggest_parallelism ~split ()))
    [ (50., 50.); (80., 20.) ]

let fig18 ppf =
  header ppf "Figure 18: PANIC latency (us) vs IP4 parallel degree" [];
  parallelism_rows ppf (fun p ->
      Printf.sprintf "%6.2f" (U.to_usec p.Panic_scenarios.p_latency))

let fig19 ppf =
  header ppf "Figure 19: PANIC throughput (Gbps) vs IP4 parallel degree" [];
  parallelism_rows ppf (fun p ->
      Printf.sprintf "%6.1f" (U.to_gbps p.Panic_scenarios.p_throughput))

let table2 ppf =
  header ppf "Table 2: LogNIC model parameters" [];
  List.iter
    (fun entry -> Fmt.pf ppf "%a@." Lognic.Params.pp_entry entry)
    Lognic.Params.table2

(* --- extensions beyond the paper (see EXPERIMENTS.md, ablations) --- *)

let validation_chain () =
  let module G = Lognic.Graph in
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput:(4. *. U.gbps) ~queue_capacity:32 ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~src:w ~dst:e g in
  g

let validation_hw =
  Lognic.Params.hardware ~bw_interface:(50. *. U.gbps) ~bw_memory:(60. *. U.gbps)

let ext_tail ?(speed = Full) ppf =
  header ppf
    "Extension: tail-latency estimation (model p50/p99 vs simulator, validation chain)"
    [ "load"; "model-p50"; "sim-p50"; "model-p99"; "sim-p99 (us)" ];
  let g = validation_chain () in
  let duration = match speed with Quick -> 0.1 | Full -> 0.5 in
  (* The four load points are independent simulations; compute them in
     parallel and print the rows afterwards in load order. *)
  List.iter
    (fun (load, q, (summary : Lognic_sim.Telemetry.summary)) ->
      Fmt.pf ppf "%4.2f  %8.2f  %8.2f  %8.2f  %8.2f@." load
        (U.to_usec q.Lognic.Tail.p50)
        (U.to_usec summary.Lognic_sim.Telemetry.p50_latency)
        (U.to_usec q.Lognic.Tail.p99)
        (U.to_usec summary.Lognic_sim.Telemetry.p99_latency))
    (Lognic_numerics.Parallel.map
       (fun load ->
         let traffic =
           Lognic.Traffic.make ~rate:(load *. 4. *. U.gbps) ~packet_size:U.mtu
         in
         let q =
           Lognic.Tail.overall
             (Lognic.Tail.evaluate g ~hw:validation_hw ~traffic
                (Lognic.Latency.evaluate g ~hw:validation_hw ~traffic))
         in
         let m =
           Lognic_sim.Netsim.run_single
             ~config:
               Lognic_sim.Netsim.Config.(default |> with_horizon duration)
             g ~hw:validation_hw ~traffic
         in
         (load, q, m.summary))
       [ 0.3; 0.5; 0.7; 0.9 ])

let ext_hol ?(speed = Full) ppf =
  header ppf
    "Extension: head-of-line blocking (64B mice vs 16KiB elephants, one IP)"
    [ "organization"; "mice mean/p99"; "elephant mean/p99 (us)"; "loss" ];
  let duration = match speed with Quick -> 0.5 | Full -> 2. in
  let c = Hol_study.default in
  let row name (o : Hol_study.outcome) =
    Fmt.pf ppf "%-12s  %6.1f /%7.1f  %6.1f /%7.1f  %.4f@." name
      (U.to_usec o.mice_mean) (U.to_usec o.mice_p99)
      (U.to_usec o.elephant_mean)
      (U.to_usec o.elephant_p99)
      o.loss_rate
  in
  row "shared-fifo" (Hol_study.run_shared_fifo ~duration c);
  row "wrr" (Hol_study.run_wrr ~duration c);
  Fmt.pf ppf "virtual-shared-queue (model, class-blind) mean: %.1f us@."
    (U.to_usec (Hol_study.model_mean_latency c))

let ext_queue_models ppf =
  header ppf
    "Ablation: latency under the four queueing models (validation chain)"
    [ "load"; "no-queueing"; "mm1n (Eq 12)"; "mmcn"; "mm1 (us)" ];
  let g = validation_chain () in
  List.iter
    (fun load ->
      let traffic =
        Lognic.Traffic.make ~rate:(load *. 4. *. U.gbps) ~packet_size:U.mtu
      in
      let mean model =
        (Lognic.Latency.evaluate ~model g ~hw:validation_hw ~traffic)
          .Lognic.Latency.mean
      in
      let show v = if Float.is_finite v then Fmt.str "%8.2f" (U.to_usec v) else "     inf" in
      Fmt.pf ppf "%4.2f  %s  %s  %s  %s@." load
        (show (mean Lognic.Latency.No_queueing))
        (show (mean Lognic.Latency.Mm1n_model))
        (show (mean Lognic.Latency.Mmcn_model))
        (show (mean Lognic.Latency.Mm1_model)))
    [ 0.3; 0.7; 0.9; 1.05 ]

let ext_netcache ?(speed = Full) ppf =
  header ppf
    "Extension (§5.3): in-network KV cache on an RMT switch"
    [ "hit%"; "model MRPS"; "measured MRPS"; "latency@70% (us)" ];
  let duration = match speed with Quick -> 0.01 | Full -> 0.02 in
  List.iter
    (fun (p : Netcache.point) ->
      Fmt.pf ppf "%4.0f  %9.2f  %9.2f  %8.2f@." (100. *. p.hit_ratio)
        (p.model_rps /. 1e6) (p.measured_rps /. 1e6)
        (U.to_usec p.model_latency))
    (Netcache.hit_ratio_sweep ~duration Netcache.default)

let ext_hybrid ppf =
  header ppf
    "Extension (§4.4): E3 NIC/host hybrid migration"
    [ "workload"; "best split (NIC stages)"; "capacity gain over NIC-only" ];
  List.iter
    (fun w ->
      Fmt.pf ppf "%-8s  %d of %d stages on the NIC  %.2fx@."
        w.Microservices.name
        (Microservices.best_hybrid_split w)
        (List.length w.Microservices.stages)
        (Microservices.hybrid_gain w))
    Microservices.all;
  (* the M/G/1 view of why measured PANIC blocking exceeds Eq 12's:
     bimodal service times have scv > 1 *)
  let profile = List.hd Panic_scenarios.profiles in
  let rate = Lognic_devices.Panic.effective_unit_rate
      Lognic_devices.Panic.unit_a_params ~sizes:profile.Panic_scenarios.sizes in
  let services =
    (* weight each size class by its packet rate: equal byte shares mean
       the small class dominates the packet stream *)
    List.map
      (fun (size, w) -> (size /. rate, w /. size))
      profile.Panic_scenarios.sizes
  in
  Fmt.pf ppf "energy (E3's headline axis, requests per watt at saturation):@.";
  List.iter
    (fun w ->
      Fmt.pf ppf "  %-8s" w.Microservices.name;
      List.iter
        (fun (r : Microservices.energy_report) ->
          Fmt.pf ppf "  %s %.0f KRPS/W" r.placement (r.rps_per_watt /. 1e3))
        (Microservices.energy_comparison w);
      Fmt.pf ppf "@.")
    Microservices.all;
  let q = Lognic_queueing.Mg1.of_service_mix ~lambda:1. ~services in
  Fmt.pf ppf
    "M/G/1 note: PANIC profile1's bimodal per-packet service has scv %.2f, so an exponential-service model underestimates its queueing by %.2fx (one root of Fig 15's model-vs-sim goodput gap).@."
    q.Lognic_queueing.Mg1.scv
    (Lognic_queueing.Mg1.mm1_underestimate q)

let ext_observability ?(speed = Full) ppf =
  header ppf
    "Extension: per-entity observability (drop sites and Eq 2 latency terms, \
     validation chain)"
    [ "load"; "queueing"; "service"; "wire"; "overhead (us)"; "loss"; "top drop site" ];
  let module Tel = Lognic_sim.Telemetry in
  let g = validation_chain () in
  let duration = match speed with Quick -> 0.02 | Full -> 0.1 in
  List.iter
    (fun (load, (m : Lognic_sim.Netsim.measurement)) ->
      let s = m.summary in
      let t = s.Tel.latency_terms in
      let top =
        match s.Tel.drop_breakdown with
        | [] -> "-"
        | (site, n) :: _ -> Fmt.str "%s (%d)" (Tel.drop_site_name site) n
      in
      Fmt.pf ppf "%4.2f  %8.2f  %7.2f  %6.2f  %8.2f  %.3f  %s@." load
        (U.to_usec t.Tel.queueing) (U.to_usec t.Tel.service)
        (U.to_usec t.Tel.wire) (U.to_usec t.Tel.overhead)
        s.Tel.loss_rate top)
    (Lognic_numerics.Parallel.map
       (fun load ->
         let traffic =
           Lognic.Traffic.make ~rate:(load *. 4. *. U.gbps) ~packet_size:U.mtu
         in
         let m =
           Lognic_sim.Netsim.run_single
             ~config:
               Lognic_sim.Netsim.Config.(default |> with_horizon duration)
             g ~hw:validation_hw ~traffic
         in
         (load, m))
       [ 0.5; 0.9; 1.5 ]);
  (* peak sampled queue depth at the bottleneck, from its gauge history *)
  let m =
    Lognic_sim.Netsim.run_single
      ~config:
        Lognic_sim.Netsim.Config.(
          default |> with_horizon duration
          |> with_metrics
               { Lognic_sim.Metrics.default_config with interval = duration /. 100. })
      g ~hw:validation_hw
      ~traffic:(Lognic.Traffic.make ~rate:(1.5 *. 4. *. U.gbps) ~packet_size:U.mtu)
  in
  List.iter
    (fun series ->
      if Tel.Series.label series = "ip.queue_depth" then
        let peak =
          Array.fold_left
            (fun acc (_, v) -> Float.max acc v)
            0.
            (Tel.Series.to_array series)
        in
        Fmt.pf ppf "bottleneck peak sampled depth at 1.5x load: %.0f@." peak)
    (Option.fold ~none:[] ~some:Lognic_sim.Metrics.series m.metrics)

let ext_offpath ppf =
  header ppf
    "Extension (§2.1): on-path vs off-path deployment"
    [ "compute%"; "on-cap"; "off-cap (Gbps)"; "on-lat"; "off-lat (us)" ];
  List.iter
    (fun (p : Offpath_study.point) ->
      Fmt.pf ppf "%5.0f  %7.1f  %7.1f  %7.2f  %7.2f@."
        (100. *. p.compute_fraction)
        (U.to_gbps p.on_path_capacity)
        (U.to_gbps p.off_path_capacity)
        (U.to_usec p.on_path_latency)
        (U.to_usec p.off_path_latency))
    (Offpath_study.sweep Offpath_study.default);
  (match Offpath_study.crossover Offpath_study.default with
  | Some f -> Fmt.pf ppf "bypass advantage ends at compute fraction %.2f@." f
  | None -> Fmt.pf ppf "no crossover within the sweep@.")

let registry ?speed () =
  [
    ("fig5", fun ppf -> fig5 ?speed ppf);
    ("fig6", fun ppf -> fig6 ?speed ppf);
    ("fig7", fun ppf -> fig7 ?speed ppf);
    ("fig9", fun ppf -> fig9 ?speed ppf);
    ("fig10", fun ppf -> fig10 ?speed ppf);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fun ppf -> fig15 ?speed ppf);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18);
    ("fig19", fig19);
    ("table2", table2);
    ("ext-tail", fun ppf -> ext_tail ?speed ppf);
    ("ext-hol", fun ppf -> ext_hol ?speed ppf);
    ("ext-queue-models", ext_queue_models);
    ("ext-netcache", fun ppf -> ext_netcache ?speed ppf);
    ("ext-offpath", ext_offpath);
    ("ext-hybrid", ext_hybrid);
    ("ext-observability", fun ppf -> ext_observability ?speed ppf);
  ]

let names = List.map fst (registry ())

let render ?speed name ppf =
  match List.assoc_opt name (registry ?speed ()) with
  | Some f ->
    f ppf;
    Ok ()
  | None -> Error (Printf.sprintf "unknown figure %S (try: %s)" name (String.concat ", " names))

let all ?speed ?jobs ppf =
  (* Figures only share the output formatter, so render each one into
     its own buffer on the domain pool and emit the buffers in registry
     order. The printed bytes are identical to a sequential [all]. *)
  List.iter
    (fun contents -> Fmt.pf ppf "%s" contents)
    (Lognic_numerics.Parallel.map ?jobs
       (fun (_, f) ->
         let buf = Buffer.create 4096 in
         let bppf = Format.formatter_of_buffer buf in
         f bppf;
         Format.pp_print_flush bppf ();
         Buffer.contents buf)
       (registry ?speed ()))
