(* Tests for the analytical model proper: traffic, roofline,
   throughput (Eqs 1-4), latency (Eqs 5-12), and the estimator. *)

open Helpers
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic

let svc ?parallelism ?queue_capacity ?overhead ?accel ?partition throughput =
  G.service ?parallelism ?queue_capacity ?overhead ?accel ?partition ~throughput ()

let hw = Lognic.Params.hardware ~bw_interface:(8. *. U.gbps) ~bw_memory:(16. *. U.gbps)

(* ingress(10G) -> ip(2G) -> egress(10G), interface on both hops *)
let simple_chain ?(ip_throughput = 2. *. U.gbps) ?(alpha = 1.) ?(queue = 32) () =
  let g = G.empty in
  let g, i =
    G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (10. *. U.gbps)) g
  in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(svc ~queue_capacity:queue ip_throughput)
      g
  in
  let g, e =
    G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (10. *. U.gbps)) g
  in
  let g = G.add_edge ~delta:1. ~alpha ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~alpha ~src:w ~dst:e g in
  (g, i, w, e)

(* Units *)

let units_conversions () =
  check_close "gbps" 1.25e9 (10. *. U.gbps);
  check_close "roundtrip gbps" 10. (U.to_gbps (10. *. U.gbps));
  check_close "usec" 5e-6 (5. *. U.usec);
  check_close "roundtrip usec" 5. (U.to_usec 5e-6);
  check_close "mops" 2e6 (2. *. U.mops);
  check_close "kib" 4096. (4. *. U.kib);
  check_close "mtu" 1500. U.mtu

(* Traffic *)

let traffic_basics () =
  let t = T.make ~rate:(1.2e9 /. 8. *. 10.) ~packet_size:1500. in
  check_close "packet rate" (t.T.rate /. 1500.) (T.packet_rate t);
  List.iter
    (fun (what, rate, packet_size) ->
      check_raises_invalid what (fun () -> T.make ~rate ~packet_size))
    [
      ("zero rate", 0., 64.);
      ("negative rate", -1., 64.);
      ("nan rate", Float.nan, 64.);
      ("infinite rate", Float.infinity, 64.);
      ("zero size", 1., 0.);
      ("nan size", 1., Float.nan);
      ("infinite size", 1., Float.infinity);
    ]

let traffic_mix () =
  let mix =
    T.mix_of_sizes ~rate:1000. ~sizes:[ (64., 1.); (1500., 1.) ]
  in
  let total_rate = List.fold_left (fun acc (c, _) -> acc +. c.T.rate) 0. mix in
  check_close "total rate preserved" 1000. total_rate;
  (* the per-packet mean is harmonic in the byte weights: each class
     carries 500 B/s, so packets/s = 500/64 + 500/1500 and the mean
     size is 1000 / (500/64 + 500/1500) ≈ 122.76 — far from 782 *)
  check_close ~tol:1e-2 "per-packet mean size" 122.76
    (T.mean_packet_size_by_packets mix);
  check_close "packet-rate consistency"
    (total_rate /. T.mean_packet_size_by_packets mix)
    (List.fold_left (fun acc (c, _) -> acc +. T.packet_rate c) 0. mix);
  let normalized = T.normalize_weights mix in
  check_close "weights sum to 1" 1.
    (List.fold_left (fun acc (_, w) -> acc +. w) 0. normalized);
  check_raises_invalid "empty mix" (fun () -> T.mix []);
  check_raises_invalid "negative weight" (fun () ->
      T.mix [ (T.make ~rate:1. ~packet_size:64., -1.) ])

(* Roofline *)

let roofline_regimes () =
  let r =
    {
      Lognic.Roofline.label = "engine";
      peak_ops = 2e6;
      ceilings =
        [
          { Lognic.Roofline.name = "cmi"; bandwidth = 6.25e9 };
          { Lognic.Roofline.name = "io"; bandwidth = 5e9 };
        ];
    }
  in
  let attainable_ops intensity =
    Lognic.Roofline.attainable_bytes r ~intensity *. intensity
  in
  (* low intensity: tightest bandwidth ceiling binds *)
  check_close "io-bound ops" (5e9 *. 1e-4) (attainable_ops 1e-4);
  Alcotest.(check string)
    "binding ceiling" "io"
    (Lognic.Roofline.binding_ceiling r ~intensity:1e-4);
  (* high intensity: compute roof binds *)
  check_close "compute-bound ops" 2e6 (attainable_ops 1.);
  Alcotest.(check string)
    "compute binding" "compute"
    (Lognic.Roofline.binding_ceiling r ~intensity:1.);
  check_close "bytes view" (2e6 /. 1.)
    (Lognic.Roofline.attainable_bytes r ~intensity:1.)

(* Throughput (Eqs 1-4) *)

let throughput_ip_bound () =
  let g, _, w, _ = simple_chain () in
  let traffic = T.make ~rate:(5. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "capacity = slowest IP" (2. *. U.gbps) r.capacity;
  check_close "attained clipped" (2. *. U.gbps) r.attained;
  (match r.bottleneck with
  | Lognic.Throughput.Vertex_bound id -> Alcotest.(check int) "ip is bottleneck" w id
  | _ -> Alcotest.fail "expected vertex bound")

let throughput_offered_bound () =
  let g, _, _, _ = simple_chain () in
  let traffic = T.make ~rate:(1. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "attained = offered" (1. *. U.gbps) r.attained;
  Alcotest.(check bool)
    "offered load is the binding constraint" true
    (r.bottleneck = Lognic.Throughput.Offered_load)

let throughput_interface_bound () =
  (* alpha = 1 on two edges -> interface ceiling BW_INTF / 2 = 4G < IP 6G *)
  let g, _, _, _ = simple_chain ~ip_throughput:(6. *. U.gbps) () in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "interface cap" (4. *. U.gbps) r.capacity;
  Alcotest.(check bool)
    "interface binds" true
    (r.bottleneck = Lognic.Throughput.Interface_bound)

let throughput_dedicated_edge_bound () =
  let g, i, w, _ = simple_chain ~ip_throughput:(6. *. U.gbps) ~alpha:0. () in
  let g = G.set_edge_params ~bandwidth:(Some (1. *. U.gbps)) ~src:i ~dst:w g in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "edge cap" (1. *. U.gbps) r.capacity;
  Alcotest.(check bool)
    "edge binds" true
    (r.bottleneck = Lognic.Throughput.Edge_bound (i, w))

let throughput_delta_scaling () =
  (* an IP seeing only delta = 0.2 of the workload supports 5x its rate *)
  let g, i, w, e = simple_chain ~alpha:0. () in
  let g = G.set_edge_params ~delta:0.2 ~src:i ~dst:w g in
  let g = G.set_edge_params ~delta:0.2 ~src:w ~dst:e g in
  let traffic = T.make ~rate:(20. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "delta scales vertex cap" (10. *. U.gbps) r.capacity

let throughput_partition_scales () =
  let g, _, w, _ = simple_chain ~alpha:0. () in
  let g = G.update_service g w (fun s -> { s with G.partition = 0.5 }) in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "gamma halves capacity" (1. *. U.gbps) r.capacity

let throughput_fanout_shares_load () =
  (* two parallel 2G IPs with a 50/50 split carry 4G together *)
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (10. *. U.gbps)) g in
  let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc (2. *. U.gbps)) g in
  let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc (2. *. U.gbps)) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (10. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.5 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.5 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.5 ~src:y ~dst:e g in
  let traffic = T.make ~rate:(10. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Throughput.evaluate g ~hw ~traffic in
  check_close "fan-out doubles capacity" (4. *. U.gbps) r.capacity

let throughput_invalid_graph_rejected () =
  let g = G.empty in
  let g, _ = G.add_vertex ~kind:G.Ip ~label:"lonely" ~service:(svc 1.) g in
  check_raises_invalid "invalid graph" (fun () ->
      Lognic.Throughput.evaluate g ~hw
        ~traffic:(T.make ~rate:1. ~packet_size:64.))

(* Latency (Eqs 5-12) *)

let latency_terms_low_load () =
  (* At very low load, latency ~ serialization + service + transfer. *)
  let g, _, _, _ = simple_chain ~alpha:1. () in
  let traffic = T.make ~rate:(0.01 *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Latency.evaluate g ~hw ~traffic in
  let serialization = 1500. /. (10. *. U.gbps) in
  let service = 1500. /. (2. *. U.gbps) in
  let transfer = 2. *. (1500. /. (8. *. U.gbps)) in
  check_within ~pct:2. "near-zero-load latency"
    ((2. *. serialization) +. service +. transfer)
    r.mean

let latency_queueing_grows_with_load () =
  let g, _, _, _ = simple_chain () in
  let at rate =
    (Lognic.Latency.evaluate g ~hw ~traffic:(T.make ~rate ~packet_size:1500.)).mean
  in
  let l1 = at (0.5 *. U.gbps) and l2 = at (1.5 *. U.gbps) and l3 = at (1.9 *. U.gbps) in
  Alcotest.(check bool) "monotone in load" true (l1 < l2 && l2 < l3)

let latency_overhead_term () =
  let g, _, w, _ = simple_chain ~alpha:0. () in
  let traffic = T.make ~rate:(0.1 *. U.gbps) ~packet_size:1500. in
  let base = (Lognic.Latency.evaluate g ~hw ~traffic).mean in
  let g = G.update_service g w (fun s -> { s with G.overhead = 10. *. U.usec }) in
  let with_overhead = (Lognic.Latency.evaluate g ~hw ~traffic).mean in
  check_close ~tol:1e-9 "O adds linearly" (10. *. U.usec) (with_overhead -. base)

let latency_accel_divides_service () =
  let g, _, w, _ = simple_chain ~alpha:0. () in
  let traffic = T.make ~rate:(0.01 *. U.gbps) ~packet_size:1500. in
  let base = Lognic.Latency.vertex_service_time g ~traffic w in
  let g2 = G.update_service g w (fun s -> { s with G.accel = 2. }) in
  let faster = Lognic.Latency.vertex_service_time g2 ~traffic w in
  check_close ~tol:1e-9 "A = 2 halves C" (base /. 2.) faster

let latency_parallelism_scales_service () =
  (* Eq 7: D multiplies per-request service at constant aggregate P. *)
  let g, _, w, _ = simple_chain ~alpha:0. () in
  let traffic = T.make ~rate:(0.01 *. U.gbps) ~packet_size:1500. in
  let base = Lognic.Latency.vertex_service_time g ~traffic w in
  let g2 = G.update_service g w (fun s -> { s with G.parallelism = 4 }) in
  check_close ~tol:1e-9 "D = 4 quadruples C" (4. *. base)
    (Lognic.Latency.vertex_service_time g2 ~traffic w)

let latency_transfer_media () =
  let g, i, w, _ = simple_chain ~alpha:0.5 () in
  let g = G.set_edge_params ~beta:0.25 ~src:i ~dst:w g in
  let traffic = T.make ~rate:(0.1 *. U.gbps) ~packet_size:1000. in
  let e = Option.get (G.edge g ~src:i ~dst:w) in
  check_close ~tol:1e-12 "Eq 7 transfer"
    ((1000. *. 0.5 /. (8. *. U.gbps)) +. (1000. *. 0.25 /. (16. *. U.gbps)))
    (Lognic.Latency.edge_transfer_time g ~hw ~traffic e)

(* The normalized δ-branching path weights, as a latency evaluation
   reports them. *)
let path_weights g =
  List.map
    (fun (r : Lognic.Latency.path_report) -> (r.path, r.weight))
    (Lognic.Latency.evaluate g ~hw ~traffic:(T.make ~rate:1e8 ~packet_size:1000.))
      .per_path

let latency_path_weights () =
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (10. *. U.gbps)) g in
  let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc (5. *. U.gbps)) g in
  let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc (5. *. U.gbps)) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (10. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.75 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.25 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.75 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.25 ~src:y ~dst:e g in
  let weights = path_weights g in
  Alcotest.(check int) "two paths" 2 (List.length weights);
  List.iter
    (fun (path, weight) ->
      if List.mem x path then check_close ~tol:1e-9 "x path weight" 0.75 weight
      else check_close ~tol:1e-9 "y path weight" 0.25 weight)
    weights

let latency_queue_models_ordering () =
  (* At moderate load: no-queueing < mmcn(D=1) = mm1n ~ mm1 within
     blocking effects; mm1 >= mm1n because the finite queue sheds. *)
  let g, _, _, _ = simple_chain ~queue:16 () in
  let traffic = T.make ~rate:(1.8 *. U.gbps) ~packet_size:1500. in
  let mean model = (Lognic.Latency.evaluate ~model g ~hw ~traffic).mean in
  let none = mean Lognic.Latency.No_queueing in
  let mm1n = mean Lognic.Latency.Mm1n_model in
  let mmcn = mean Lognic.Latency.Mmcn_model in
  let mm1 = mean Lognic.Latency.Mm1_model in
  Alcotest.(check bool) "queueing adds latency" true (none < mm1n);
  check_close ~tol:1e-9 "mmcn = mm1n when D = 1" mm1n mmcn;
  Alcotest.(check bool) "finite queue sheds load" true (mm1n <= mm1)

let latency_mm1_diverges_at_saturation () =
  let g, _, _, _ = simple_chain () in
  let traffic = T.make ~rate:(2.5 *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Latency.evaluate ~model:Lognic.Latency.Mm1_model g ~hw ~traffic in
  Alcotest.(check bool) "infinite latency" true (r.mean = infinity);
  let finite = Lognic.Latency.evaluate g ~hw ~traffic in
  Alcotest.(check bool) "mm1n stays finite" true (Float.is_finite finite.mean)

let latency_carried_rate () =
  let g, _, _, _ = simple_chain ~queue:4 () in
  (* overload: drops must discount the carried rate *)
  let traffic = T.make ~rate:(4. *. U.gbps) ~packet_size:1500. in
  let r = Lognic.Latency.evaluate g ~hw ~traffic in
  Alcotest.(check bool)
    "carried below offered" true
    (r.carried_rate < traffic.T.rate);
  Alcotest.(check bool)
    "carried near capacity" true
    (r.carried_rate > 1.5 *. U.gbps && r.carried_rate < 2.4 *. U.gbps)

let latency_transparent_vertices () =
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:G.default_service g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:G.default_service g in
  let g = G.add_edge ~delta:1. ~src:i ~dst:e g in
  let traffic = T.make ~rate:1e9 ~packet_size:1500. in
  let r = Lognic.Latency.evaluate g ~hw ~traffic in
  check_close "transparent graph has zero latency" 0. r.mean

(* Estimate facade *)

let estimate_consistency () =
  let g, _, _, _ = simple_chain () in
  let traffic = T.make ~rate:(1. *. U.gbps) ~packet_size:1500. in
  let report = Lognic.Estimate.run g ~hw ~traffic in
  check_close "throughput thread"
    (Lognic.Throughput.evaluate g ~hw ~traffic).attained
    report.throughput.attained;
  check_close "latency thread" (Lognic.Latency.evaluate g ~hw ~traffic).mean
    report.latency.mean

let estimate_saturation_sweep () =
  let g, _, _, _ = simple_chain () in
  let sweep =
    Lognic.Estimate.saturation_sweep ~points:10 g ~hw ~packet_size:1500.
      ~max_rate:(2.2 *. U.gbps)
  in
  Alcotest.(check int) "point count" 10 (List.length sweep);
  let latencies = List.map (fun (_, _, l) -> l) sweep in
  let sorted = List.sort compare latencies in
  Alcotest.(check (list (float 1e-12))) "latency monotone over the sweep" sorted latencies;
  List.iter
    (fun (offered, attained, _) ->
      Alcotest.(check bool) "attained <= offered" true (attained <= offered +. 1e-6))
    sweep

(* Params table *)

let printers_render () =
  (* the pp functions back the CLI's output; they must render the facts
     a user relies on without raising *)
  let g, _, _, _ = simple_chain () in
  let traffic = T.make ~rate:(1. *. U.gbps) ~packet_size:1500. in
  let report = Lognic.Estimate.run g ~hw ~traffic in
  let rendered = Fmt.str "%a" (Lognic.Estimate.pp_report g) report in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %S" fragment)
        true
        (contains_substring rendered fragment))
    [ "capacity"; "bottleneck"; "mean latency"; "carried rate"; "path" ];
  let g_rendered = Fmt.str "%a" G.pp g in
  Alcotest.(check bool) "graph pp mentions vertices" true
    (contains_substring g_rendered "ingress")

let params_table () =
  Alcotest.(check int) "13 rows like Table 2" 13 (List.length Lognic.Params.table2);
  List.iter
    (fun bw ->
      check_raises_invalid "bad hardware" (fun () ->
          Lognic.Params.hardware ~bw_interface:bw ~bw_memory:1.);
      check_raises_invalid "bad resource capacity" (fun () ->
          Lognic.Params.with_resources hw [ ("r", bw) ]))
    [ 0.; Float.nan; Float.infinity ]

(* Properties *)

let properties =
  [
    prop "capacity is monotone in IP throughput"
      QCheck.(pair (float_range 0.1 10.) (float_range 0.1 10.))
      (fun (p1, p2) ->
        let cap p =
          let g, _, _, _ = simple_chain ~ip_throughput:(p *. U.gbps) () in
          Lognic.Throughput.capacity g ~hw
        in
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        cap lo <= cap hi +. 1e-6);
    prop "attained never exceeds offered or capacity"
      QCheck.(pair (float_range 0.05 20.) (float_range 0.1 8.))
      (fun (rate_gbps, ip_gbps) ->
        let g, _, _, _ = simple_chain ~ip_throughput:(ip_gbps *. U.gbps) () in
        let traffic = T.make ~rate:(rate_gbps *. U.gbps) ~packet_size:1500. in
        let r = Lognic.Throughput.evaluate g ~hw ~traffic in
        r.attained <= traffic.T.rate +. 1e-6 && r.attained <= r.capacity +. 1e-6);
    prop "latency at least the no-queueing floor"
      QCheck.(float_range 0.05 1.9)
      (fun rate_gbps ->
        let g, _, _, _ = simple_chain () in
        let traffic = T.make ~rate:(rate_gbps *. U.gbps) ~packet_size:1500. in
        let queued = (Lognic.Latency.evaluate g ~hw ~traffic).mean in
        let floor =
          (Lognic.Latency.evaluate ~model:Lognic.Latency.No_queueing g ~hw ~traffic)
            .mean
        in
        queued >= floor -. 1e-12);
    prop "path weights are a probability distribution"
      QCheck.(pair (float_range 0.01 1.) (float_range 0.01 1.))
      (fun (d1, d2) ->
        let g = G.empty in
        let g, i =
          G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc 1e9) g
        in
        let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc 1e9) g in
        let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc 1e9) g in
        let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc 1e9) g in
        let g = G.add_edge ~delta:d1 ~src:i ~dst:x g in
        let g = G.add_edge ~delta:d2 ~src:i ~dst:y g in
        let g = G.add_edge ~delta:d1 ~src:x ~dst:e g in
        let g = G.add_edge ~delta:d2 ~src:y ~dst:e g in
        let weights = List.map snd (path_weights g) in
        abs_float (List.fold_left ( +. ) 0. weights -. 1.) < 1e-9
        && List.for_all (fun w -> w >= 0.) weights);
  ]

let suite =
  [
    quick "units: conversions" units_conversions;
    quick "traffic: basics" traffic_basics;
    quick "traffic: mixes" traffic_mix;
    quick "roofline: regimes" roofline_regimes;
    quick "throughput: IP bound" throughput_ip_bound;
    quick "throughput: offered bound" throughput_offered_bound;
    quick "throughput: interface bound" throughput_interface_bound;
    quick "throughput: dedicated edge bound" throughput_dedicated_edge_bound;
    quick "throughput: delta scaling" throughput_delta_scaling;
    quick "throughput: partition scaling" throughput_partition_scales;
    quick "throughput: fan-out shares load" throughput_fanout_shares_load;
    quick "throughput: rejects invalid graphs" throughput_invalid_graph_rejected;
    quick "latency: low-load decomposition" latency_terms_low_load;
    quick "latency: queueing grows with load" latency_queueing_grows_with_load;
    quick "latency: overhead term" latency_overhead_term;
    quick "latency: acceleration factor" latency_accel_divides_service;
    quick "latency: parallelism scales service" latency_parallelism_scales_service;
    quick "latency: path weights" latency_path_weights;
    quick "latency: Eq 7 transfer time" latency_transfer_media;
    quick "latency: queue-model ordering" latency_queue_models_ordering;
    quick "latency: mm1 divergence" latency_mm1_diverges_at_saturation;
    quick "latency: carried rate under overload" latency_carried_rate;
    quick "latency: transparent vertices" latency_transparent_vertices;
    quick "estimate: thread consistency" estimate_consistency;
    quick "estimate: saturation sweep" estimate_saturation_sweep;
    quick "printers: render key facts" printers_render;
    quick "params: table 2" params_table;
  ]
  @ properties

