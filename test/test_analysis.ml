(* Tests for the analysis extensions: the simulator's deterministic
   service against M/D/1 (M/G/1 at scv 0), sensitivity elasticities,
   and the on-path/off-path deployment study. *)

open Helpers
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic
module Q = Lognic_queueing
module N = Lognic_numerics
module S = Lognic_sim

(* M/D/1 (M/G/1 with deterministic service) *)

let md1_matches_deterministic_sim () =
  (* Poisson arrivals + deterministic service at an Ip_node = M/D/1 *)
  let engine = S.Engine.create () in
  let rng = N.Rng.create ~seed:9 in
  let node =
    S.Ip_node.create engine ~rng:(N.Rng.split rng) ~label:"n" ~engines:1
      ~rate_per_engine:100. ~queue_capacity:100_000
      ~service_dist:S.Ip_node.Deterministic
  in
  let lambda = 0.7 in
  let stats = N.Stats.Online.create () in
  let horizon = 100_000. in
  let rec arrive () =
    let born = S.Engine.now engine in
    ignore
      (S.Ip_node.submit_at node ~queue:0 ~work:100. (fun () ->
           if born > 1000. then
             N.Stats.Online.add stats (S.Engine.now engine -. born)));
    let next = born +. N.Dist.sample_exponential ~rate:lambda rng in
    if next < horizon then S.Engine.schedule engine ~at:next arrive
  in
  S.Engine.schedule engine ~at:0.1 arrive;
  S.Engine.run ~until:horizon engine;
  let predicted =
    Q.Mg1.mean_waiting_time (Q.Mg1.create ~lambda ~mu:1. ~scv:0.) +. 1.
  in
  check_within ~pct:4. "M/D/1 sojourn matches sim" predicted
    (N.Stats.Online.mean stats)

(* Sensitivity *)

let hw = Lognic.Params.hardware ~bw_interface:(50. *. U.gbps) ~bw_memory:(60. *. U.gbps)

let two_stage ?(p1 = 2. *. U.gbps) ?(p2 = 8. *. U.gbps) () =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, a = G.add_vertex ~kind:G.Ip ~label:"a" ~service:(svc p1) g in
  let g, b = G.add_vertex ~kind:G.Ip ~label:"b" ~service:(svc p2) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~src:i ~dst:a g in
  let g = G.add_edge ~delta:1. ~src:a ~dst:b g in
  let g = G.add_edge ~delta:1. ~src:b ~dst:e g in
  (g, a, b)

let sensitivity_identifies_bottleneck () =
  let g, a, _ = two_stage () in
  (* moderately saturating load: vertex a (2G) binds. (Eq 11 feeds
     every vertex the full BW_in, so a wildly oversubscribed load would
     make downstream queues look sensitive too.) *)
  let traffic = T.make ~rate:(2.2 *. U.gbps) ~packet_size:1500. in
  let elasticities = Lognic.Sensitivity.analyze g ~hw ~traffic in
  (match Lognic.Sensitivity.most_binding elasticities with
  | Lognic.Sensitivity.P_vertex id -> Alcotest.(check int) "vertex a binds" a id
  | _ -> Alcotest.fail "expected a vertex parameter");
  let of_param p =
    List.find
      (fun (e : Lognic.Sensitivity.elasticity) -> e.parameter = p)
      elasticities
  in
  let bottleneck = of_param (Lognic.Sensitivity.P_vertex a) in
  check_within ~pct:10. "binding elasticity ~ 1" 1. bottleneck.throughput_elasticity;
  (* slack vertex: zero throughput elasticity *)
  let slack = of_param (Lognic.Sensitivity.P_vertex 2) in
  Alcotest.(check bool)
    "slack elasticity ~ 0" true
    (abs_float slack.throughput_elasticity < 0.05)

let sensitivity_offered_load_regime () =
  let g, a, _ = two_stage () in
  (* light load: the offered rate is the binding input *)
  let traffic = T.make ~rate:(0.5 *. U.gbps) ~packet_size:1500. in
  let elasticities = Lognic.Sensitivity.analyze g ~hw ~traffic in
  Alcotest.(check bool)
    "offered load binds" true
    (Lognic.Sensitivity.most_binding elasticities = Lognic.Sensitivity.Offered_rate);
  (* capacity increases at the (queueing-relevant) bottleneck reduce
     latency: negative latency elasticity *)
  let bottleneck =
    List.find
      (fun (e : Lognic.Sensitivity.elasticity) ->
        e.parameter = Lognic.Sensitivity.P_vertex a)
      elasticities
  in
  Alcotest.(check bool)
    "more capacity, less latency" true
    (bottleneck.latency_elasticity < -0.1)

let sensitivity_rejects_invalid () =
  let g = G.empty in
  let g, _ = G.add_vertex ~kind:G.Ip ~label:"x" ~service:G.default_service g in
  check_raises_invalid "invalid graph" (fun () ->
      Lognic.Sensitivity.analyze g ~hw
        ~traffic:(T.make ~rate:1e9 ~packet_size:1500.))

(* Off-path study *)

(* The sweep evaluates both graphs at every fraction, and the model
   validates each graph before it evaluates it. *)
let offpath_graphs_valid () =
  let points = Lognic_apps.Offpath_study.(sweep default) in
  Alcotest.(check (list (float 0.))) "every fraction swept"
    [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 1. ]
    (List.map (fun (p : Lognic_apps.Offpath_study.point) -> p.compute_fraction) points);
  List.iter
    (fun (p : Lognic_apps.Offpath_study.point) ->
      Alcotest.(check bool) "on-path valid" true
        (Float.is_finite p.on_path_capacity && p.on_path_capacity > 0.);
      Alcotest.(check bool) "off-path valid" true
        (Float.is_finite p.off_path_capacity && p.off_path_capacity > 0.))
    points

let offpath_bypass_advantage () =
  let open Lognic_apps.Offpath_study in
  let points = sweep default in
  (* off-path capacity dominates or ties everywhere *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "off >= on at f=%g" p.compute_fraction)
        true
        (p.off_path_capacity >= p.on_path_capacity -. 1e-3))
    points;
  (* latency: bypass saves the SoC transit at low compute fractions *)
  let low = List.hd points in
  Alcotest.(check bool)
    "bypass latency advantage at low f" true
    (low.off_path_latency < 0.5 *. low.on_path_latency);
  (* both converge to the SoC rate when everything needs computing *)
  let full = List.nth points (List.length points - 1) in
  check_within ~pct:2. "f=1 capacities converge" full.off_path_capacity
    full.on_path_capacity;
  check_within ~pct:1. "f=1 capacity = SoC rate" default.soc_rate
    full.on_path_capacity

let offpath_crossover () =
  match Lognic_apps.Offpath_study.(crossover default) with
  | Some f -> Alcotest.(check bool) "crossover in the upper range" true (f >= 0.6)
  | None -> Alcotest.fail "expected a crossover"

let suite =
  [
    slow "md1: matches deterministic sim" md1_matches_deterministic_sim;
    quick "sensitivity: identifies the bottleneck" sensitivity_identifies_bottleneck;
    quick "sensitivity: offered-load regime" sensitivity_offered_load_regime;
    quick "sensitivity: rejects invalid graphs" sensitivity_rejects_invalid;
    quick "offpath: graphs valid" offpath_graphs_valid;
    quick "offpath: bypass advantage" offpath_bypass_advantage;
    quick "offpath: crossover" offpath_crossover;
  ]
