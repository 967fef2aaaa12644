(* The differential property suite: each property cross-checks two
   independent implementations of the same quantity — closed-form model
   vs discrete-event sim, sequential vs domain-parallel execution,
   printer vs parser, one queueing formula vs another — so a bug in
   either side surfaces as a disagreement without needing an oracle. *)

module G = Lognic.Graph
module Sim = Lognic_sim
module Q = Lognic_queueing

let close ~tol a b =
  Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let fail_close ~tol ~what expected actual =
  if close ~tol expected actual then true
  else
    QCheck.Test.fail_reportf "%s: expected %.12g, got %.12g (tol %g)" what
      expected actual tol

let arb ?print gen = QCheck.make ?print gen

(* ---- model vs sim --------------------------------------------------- *)

(* At low load with paced arrivals and deterministic service nothing
   ever queues, so every packet walks the chain in the same constant
   time and the sim's mean latency/throughput must agree sharply with
   the no-queueing closed form. *)
let low_load_config =
  Sim.Netsim.Config.(
    default |> with_horizon 0.01
    |> with_service_dist Sim.Ip_node.Deterministic
    |> with_arrival Sim.Traffic_gen.Paced)

let model_vs_sim_latency ~count =
  QCheck.Test.make ~count ~name:"model-vs-sim: low-load latency agrees"
    (arb Gen.low_load_chain ~print:(fun s -> s.Gen.label))
    (fun sc ->
      let traffic = fst (List.hd sc.Gen.mix) in
      let model =
        (Lognic.Latency.evaluate ~model:Lognic.Latency.No_queueing sc.Gen.graph
           ~hw:sc.Gen.hw ~traffic)
          .Lognic.Latency.mean
      in
      let m =
        Sim.Netsim.execute
          (Sim.Netsim.Run.make ~config:low_load_config sc.Gen.graph
             ~hw:sc.Gen.hw ~mix:sc.Gen.mix)
      in
      let sim = m.Sim.Netsim.summary.Sim.Telemetry.mean_latency in
      m.Sim.Netsim.summary.Sim.Telemetry.delivered_packets > 0
      && fail_close ~tol:1e-6 ~what:"mean latency" model sim)

let model_vs_sim_throughput ~count =
  QCheck.Test.make ~count ~name:"model-vs-sim: low-load throughput agrees"
    (arb Gen.low_load_chain ~print:(fun s -> s.Gen.label))
    (fun sc ->
      let traffic = fst (List.hd sc.Gen.mix) in
      let m =
        Sim.Netsim.execute
          (Sim.Netsim.Run.make ~config:low_load_config sc.Gen.graph
             ~hw:sc.Gen.hw ~mix:sc.Gen.mix)
      in
      (* in-flight packets at the horizon leave the delivered-bytes
         window a couple of packets short: loose bound *)
      fail_close ~tol:0.05 ~what:"throughput" traffic.Lognic.Traffic.rate
        m.Sim.Netsim.summary.Sim.Telemetry.throughput)

(* ---- DSL round trip -------------------------------------------------- *)

let dsl_round_trip ~count =
  QCheck.Test.make ~count ~name:"dsl: printer . parser = id"
    (arb Gen.document ~print:Lognic_dsl.Printer.document_to_string)
    (fun doc ->
      let s = Lognic_dsl.Printer.document_to_string doc in
      match Lognic_dsl.Parser.parse_string s with
      | Error e -> QCheck.Test.fail_reportf "printed doc does not parse: %s" e
      | Ok doc' ->
        let s' = Lognic_dsl.Printer.document_to_string doc' in
        s = s'
        || QCheck.Test.fail_reportf
             "round trip changed the document:\n%s\nvs\n%s" s s')

(* ---- queueing laws --------------------------------------------------- *)

let lambdas = [ 0.3e6; 0.5e6; 0.7e6 ]
let mus = [ 1e6; 2e6 ]

let mm1n_limit_is_mm1 ~count =
  QCheck.Test.make ~count ~name:"queueing: Mm1n -> Mm1 as capacity -> inf"
    (arb (QCheck.Gen.pair (QCheck.Gen.oneofl lambdas) (QCheck.Gen.oneofl mus)))
    (fun (lambda, mu) ->
      (* rho <= 0.7, so the mass beyond 200 entries is < 0.7^200 *)
      let finite = Q.Mm1n.create ~lambda ~mu ~capacity:200 in
      let infinite = Q.Mm1.create ~lambda ~mu in
      fail_close ~tol:1e-3 ~what:"waiting time"
        (Q.Mm1.mean_waiting_time infinite)
        (Q.Mm1n.solve finite).Q.Mm1n.waiting)

let mg1_exponential_is_mm1 ~count =
  QCheck.Test.make ~count ~name:"queueing: Mg1 at scv=1 equals Mm1"
    (arb (QCheck.Gen.pair (QCheck.Gen.oneofl lambdas) (QCheck.Gen.oneofl mus)))
    (fun (lambda, mu) ->
      fail_close ~tol:1e-9 ~what:"waiting time"
        (Q.Mm1.mean_waiting_time (Q.Mm1.create ~lambda ~mu))
        (Q.Mg1.mean_waiting_time (Q.Mg1.create ~lambda ~mu ~scv:1.)))

(* Satellite of the Mm1n single-vector-build change: the algebraic
   Eq. 12 form and the state-vector computation must keep agreeing in
   the numerically hostile rho ~ 1 region. *)
let mm1n_closed_form_near_saturation ~count =
  QCheck.Test.make ~count ~name:"queueing: Mm1n closed form agrees near rho=1"
    (arb
       (QCheck.Gen.triple (QCheck.Gen.oneofl mus)
          (QCheck.Gen.oneofl [ -1e-6; -1e-8; 0.; 1e-8; 1e-6 ])
          (QCheck.Gen.int_range 1 64)))
    (fun (mu, eps, capacity) ->
      let queue = Q.Mm1n.create ~lambda:(mu *. (1. +. eps)) ~mu ~capacity in
      fail_close ~tol:1e-6 ~what:"waiting time near saturation"
        (Q.Mm1n.solve queue).Q.Mm1n.waiting
        (Q.Mm1n.waiting_time_closed_form queue))

(* Little's law, sim vs analytics: a single queueing node with no wire
   or overhead terms, so end-to-end latency is exactly the node
   sojourn. N-bar comes from the node's queue_depth gauge history. *)
let littles_law_vs_sim ~count =
  QCheck.Test.make ~count ~name:"queueing: Little's law holds in sim telemetry"
    (arb
       (QCheck.Gen.pair
          (QCheck.Gen.oneofl [ 0.3; 0.5; 0.7 ])
          (QCheck.Gen.oneofl [ 500.; 1000. ])))
    (fun (rho, size) ->
      let throughput = 1e9 in
      let graph =
        Gen.single_node_graph ~parallelism:1 ~queue_capacity:64 ~throughput
      in
      let hw = Lognic.Params.hardware ~bw_interface:1e12 ~bw_memory:1e12 in
      let traffic =
        Lognic.Traffic.make ~rate:(rho *. throughput) ~packet_size:size
      in
      let config =
        Sim.Netsim.Config.(
          default |> with_horizon 0.02
          |> with_metrics { Sim.Metrics.default_config with interval = 1e-5 })
      in
      let m = Sim.Netsim.execute (Sim.Netsim.Run.single ~config graph ~hw ~traffic) in
      let summary = m.Sim.Netsim.summary in
      let depth_series =
        List.find
          (fun s -> Sim.Telemetry.Series.label s = "ip.queue_depth")
          (Sim.Metrics.series (Option.get m.Sim.Netsim.metrics))
      in
      let samples = Sim.Telemetry.Series.to_array depth_series in
      let n_bar =
        Array.fold_left (fun acc (_, v) -> acc +. v) 0. samples
        /. float_of_int (Array.length samples)
      in
      Q.Littles.consistent ~tol:0.2
        ~arrival_rate:summary.Sim.Telemetry.packet_rate
        ~time_in_system:summary.Sim.Telemetry.mean_latency
        ~number_in_system:n_bar ()
      || QCheck.Test.fail_reportf
           "L=lambda.W violated: lambda=%g W=%g N=%g (lambda.W=%g)"
           summary.Sim.Telemetry.packet_rate summary.Sim.Telemetry.mean_latency
           n_bar
           (summary.Sim.Telemetry.packet_rate
          *. summary.Sim.Telemetry.mean_latency))

(* Sim sojourn vs the Mm1n closed form the paper assigns to the node:
   loose agreement (the sim is a finite stochastic sample). *)
let mm1n_vs_sim_sojourn ~count =
  QCheck.Test.make ~count ~name:"model-vs-sim: Mm1n sojourn within 30%"
    (arb (QCheck.Gen.oneofl [ 0.3; 0.5; 0.7 ]))
    (fun rho ->
      let throughput = 1e9 and size = 1000. in
      let graph =
        Gen.single_node_graph ~parallelism:1 ~queue_capacity:64 ~throughput
      in
      let hw = Lognic.Params.hardware ~bw_interface:1e12 ~bw_memory:1e12 in
      let traffic =
        Lognic.Traffic.make ~rate:(rho *. throughput) ~packet_size:size
      in
      let config =
        Sim.Netsim.Config.(default |> with_horizon 0.02)
      in
      let m = Sim.Netsim.execute (Sim.Netsim.Run.single ~config graph ~hw ~traffic) in
      let mu = throughput /. size in
      let queue = Q.Mm1n.create ~lambda:(rho *. mu) ~mu ~capacity:64 in
      fail_close ~tol:0.3 ~what:"mean sojourn"
        (Q.Mm1n.solve queue).Q.Mm1n.time_in_system
        m.Sim.Netsim.summary.Sim.Telemetry.mean_latency)

(* ---- invariant conformance ------------------------------------------- *)

(* The tentpole closing the loop on itself: every run the fuzzer can
   construct — any graph shape, arrival process, service distribution,
   fault plan — must satisfy every conservation law, and turning the
   checker on must not change the measurement. *)
let invariants_hold_everywhere ~count =
  QCheck.Test.make ~count
    ~name:"invariants: every fuzzed run satisfies every law"
    (arb
       (QCheck.Gen.triple Gen.wild
          (QCheck.Gen.pair Gen.arrival Gen.service_dist)
          (Gen.fault_plan ~duration:2e-3))
       ~print:(fun (s, _, faults) ->
         Printf.sprintf "%s (%d fault(s))" s.Gen.label (List.length faults)))
    (fun (sc, (arrival, service_dist), faults) ->
      let config =
        Sim.Netsim.Config.(
          default |> with_horizon 2e-3 |> with_arrival arrival
          |> with_service_dist service_dist
          |> with_invariants true)
      in
      let spec =
        Sim.Netsim.Run.make ~config ~faults sc.Gen.graph ~hw:sc.Gen.hw
          ~mix:sc.Gen.mix
      in
      let checked = Sim.Netsim.execute spec in
      let plain =
        Sim.Netsim.execute
          (Sim.Netsim.Run.with_config spec
             (Sim.Netsim.Config.with_invariants false config))
      in
      let json m =
        Sim.Telemetry.Json.to_string (Sim.Netsim.measurement_to_json m)
      in
      (match checked.Sim.Netsim.invariants with
      | None -> QCheck.Test.fail_reportf "checker was on but report is missing"
      | Some report ->
        Sim.Invariants.ok report
        ||
        let v = List.hd report.Sim.Invariants.violations in
        QCheck.Test.fail_reportf "%d violation(s), first: %s"
          report.Sim.Invariants.total_violations
          (Format.asprintf "%a" Sim.Invariants.pp_violation v))
      && (json checked = json plain
         || QCheck.Test.fail_reportf "checking changed the measurement JSON"))

(* ---- routing residual mass ------------------------------------------- *)

(* Audit property for the per-packet routing draw: fraction vectors
   whose cumulative float sums misbehave — subnormals next to 1.0,
   zero branches, sums that need rounding — must never let a draw fall
   off the end of the cumulative table. Every packet keeps a real
   route (all conservation laws hold with the checker on) and no NaN
   leaks into the measurement. *)
let pathological_fractions =
  [
    [ 1e-300; 1e-300; 1.0 ];
    [ 1.0; 1e-300 ];
    [ 0.; 1e-300; 1.0 ];
    [ 0.1; 0.1; 0.1 ];
    [ 1e-17; 1.0; 1e-17 ];
    [ 0.3; 0.3; 0.4 ];
    [ 4e-324; 1.0 ];
  ]

let routing_residual_mass ~count =
  QCheck.Test.make ~count
    ~name:"netsim: routing draw never falls off the cumulative table"
    (arb
       (QCheck.Gen.pair
          (QCheck.Gen.oneofl pathological_fractions)
          (QCheck.Gen.int_range 1 1000))
       ~print:(fun (fs, seed) ->
         Printf.sprintf "seed %d [%s]" seed
           (String.concat "; " (List.map (Printf.sprintf "%h") fs))))
    (fun (fractions, seed) ->
      let svc t = G.service ~throughput:t () in
      let g = G.empty in
      let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc 25e9) g in
      let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc 25e9) g in
      let g, _ =
        List.fold_left
          (fun (g, k) delta ->
            let g, v =
              G.add_vertex ~kind:G.Ip
                ~label:(Printf.sprintf "branch%d" k)
                ~service:(svc 5e9) g
            in
            let g = G.add_edge ~delta ~src:i ~dst:v g in
            (G.add_edge ~src:v ~dst:e g, k + 1))
          (g, 0) fractions
      in
      let hw = Lognic.Params.hardware ~bw_interface:1e12 ~bw_memory:1e12 in
      let traffic = Lognic.Traffic.make ~rate:1e9 ~packet_size:1000. in
      let config =
        Sim.Netsim.Config.(
          default |> with_seed seed |> with_horizon 2e-3
          |> with_invariants true)
      in
      let m = Sim.Netsim.execute (Sim.Netsim.Run.single ~config g ~hw ~traffic) in
      let invariants_ok =
        match m.Sim.Netsim.invariants with
        | None -> QCheck.Test.fail_reportf "checker was on but report is missing"
        | Some report ->
          Sim.Invariants.ok report
          ||
          let v = List.hd report.Sim.Invariants.violations in
          QCheck.Test.fail_reportf "%d violation(s), first: %s"
            report.Sim.Invariants.total_violations
            (Format.asprintf "%a" Sim.Invariants.pp_violation v)
      in
      let rec all_finite = function
        | Sim.Telemetry.Json.Num x -> Float.is_finite x
        | Sim.Telemetry.Json.Obj kvs ->
          List.for_all (fun (_, v) -> all_finite v) kvs
        | Sim.Telemetry.Json.Arr vs -> List.for_all all_finite vs
        | _ -> true
      in
      invariants_ok
      && (m.Sim.Netsim.summary.Sim.Telemetry.delivered_packets > 0
         || QCheck.Test.fail_reportf "no packet survived the split")
      && (all_finite (Sim.Netsim.measurement_to_json m)
         || QCheck.Test.fail_reportf
              "non-finite number leaked into the measurement JSON"))

(* ---- traffic mixes and contention ------------------------------------ *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let fail_bits ~what expected actual =
  same_bits expected actual
  || QCheck.Test.fail_reportf "%s: expected %h, got %h (not bit-identical)"
       what expected actual

(* Tentpole regression guard: pushing one class through the joint
   multi-class machinery is the single-class model, bit for bit — the
   shares all collapse to exactly 1 and every scaling step is skipped. *)
let mix_single_class_limit ~count =
  QCheck.Test.make ~count
    ~name:"mix: one-class mix is bit-identical to the single-class model"
    (arb Gen.wild ~print:(fun s -> s.Gen.label))
    (fun sc ->
      let traffic = fst (List.hd sc.Gen.mix) in
      let solo = Lognic.Estimate.run sc.Gen.graph ~hw:sc.Gen.hw ~traffic in
      let joint =
        Lognic.Estimate.run_mix sc.Gen.graph ~hw:sc.Gen.hw
          ~mix:[ (traffic, 1.) ]
      in
      let _, _, tp, lat = List.hd joint.Lognic.Extensions.classes in
      fail_bits ~what:"capacity" solo.Lognic.Estimate.throughput.Lognic.Throughput.capacity
        tp.Lognic.Throughput.capacity
      && fail_bits ~what:"attained" solo.Lognic.Estimate.throughput.Lognic.Throughput.attained
           tp.Lognic.Throughput.attained
      && fail_bits ~what:"mean latency" solo.Lognic.Estimate.latency.Lognic.Latency.mean
           lat.Lognic.Latency.mean
      && fail_bits ~what:"carried rate" solo.Lognic.Estimate.latency.Lognic.Latency.carried_rate
           lat.Lognic.Latency.carried_rate
      && fail_bits ~what:"aggregate throughput"
           solo.Lognic.Estimate.throughput.Lognic.Throughput.attained
           joint.Lognic.Extensions.throughput
      && fail_bits ~what:"aggregate latency" solo.Lognic.Estimate.latency.Lognic.Latency.mean
           joint.Lognic.Extensions.latency)

(* Drop the per-class summary field — the only place the class split
   is allowed to show — and demand the rest of the measurement byte
   over byte. *)
let rec strip_per_class = function
  | Sim.Telemetry.Json.Obj kvs ->
    Sim.Telemetry.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "per_class" then None else Some (k, strip_per_class v))
         kvs)
  | Sim.Telemetry.Json.Arr vs -> Sim.Telemetry.Json.Arr (List.map strip_per_class vs)
  | other -> other

(* Splitting one class into two identical copies at rate/2 changes
   which class index each packet carries and nothing else: the
   generator draws the same arrival stream (r/2 + r/2 = r is exact)
   and every packet has the same size, so the measurement JSON minus
   [per_class] must be byte-identical — at any jobs count — and the
   model aggregates must collapse bit-exactly.  (Only the halving
   split is float-exact end to end: r/N for N not a power of two
   rounds, and even N = 4 hits 3/4·r partial sums whose significand
   needs two extra bits.) *)
let mix_identical_classes_collapse ~count =
  QCheck.Test.make ~count
    ~name:"mix: two identical half-rate classes are byte-identical to the merged class"
    (arb Gen.low_load_chain ~print:(fun s -> Printf.sprintf "%s halved" s.Gen.label))
    (fun sc ->
      let merged = fst (List.hd sc.Gen.mix) in
      let part =
        { merged with Lognic.Traffic.rate = merged.Lognic.Traffic.rate /. 2. }
      in
      let split = [ (part, 1.); (part, 1.) ] in
      (* model side: aggregates collapse bit-exactly *)
      let a = Lognic.Estimate.run_mix sc.Gen.graph ~hw:sc.Gen.hw ~mix:[ (merged, 1.) ] in
      let b = Lognic.Estimate.run_mix sc.Gen.graph ~hw:sc.Gen.hw ~mix:split in
      fail_bits ~what:"aggregate throughput" a.Lognic.Extensions.throughput
        b.Lognic.Extensions.throughput
      && fail_bits ~what:"aggregate latency" a.Lognic.Extensions.latency
           b.Lognic.Extensions.latency
      &&
      (* sim side: identical event stream, so the stripped measurement
         JSON is byte-identical *)
      let config =
        Sim.Netsim.Config.(default |> with_horizon 2e-3)
      in
      let json mix =
        Sim.Telemetry.Json.to_string
          (strip_per_class
             (Sim.Netsim.measurement_to_json
                (Sim.Netsim.execute
                   (Sim.Netsim.Run.make ~config sc.Gen.graph ~hw:sc.Gen.hw ~mix))))
      in
      (json [ (merged, 1.) ] = json split
      || QCheck.Test.fail_reportf "split mix changed the measurement JSON")
      &&
      (* and the split spec stays bit-identical across jobs counts *)
      let spec =
        Sim.Netsim.Run.make ~config sc.Gen.graph ~hw:sc.Gen.hw ~mix:split
      in
      Sim.Netsim.execute_replicated ~jobs:1 ~runs:2 spec
      = Sim.Netsim.execute_replicated ~jobs:4 ~runs:2 spec
      || QCheck.Test.fail_reportf "split mix diverges across jobs")

(* The joint evaluation must not care how the class list is ordered:
   same classes, same weights, permuted — same per-class results and
   (up to summation order) the same aggregates. *)
let mix_permutation_invariant ~count =
  QCheck.Test.make ~count
    ~name:"mix: class order does not change the joint evaluation"
    (arb Gen.low_load_mix_chain ~print:(fun s -> s.Gen.label))
    (fun sc ->
      let rev = List.rev sc.Gen.mix in
      let a = Lognic.Estimate.run_mix sc.Gen.graph ~hw:sc.Gen.hw ~mix:sc.Gen.mix in
      let b = Lognic.Estimate.run_mix sc.Gen.graph ~hw:sc.Gen.hw ~mix:rev in
      let tol = 1e-9 in
      fail_close ~tol ~what:"aggregate throughput" a.Lognic.Extensions.throughput
        b.Lognic.Extensions.throughput
      && fail_close ~tol ~what:"aggregate latency" a.Lognic.Extensions.latency
           b.Lognic.Extensions.latency
      && List.for_all2
           (fun (_, _, tp1, lat1) (_, _, tp2, lat2) ->
             fail_close ~tol ~what:"class capacity" tp1.Lognic.Throughput.capacity
               tp2.Lognic.Throughput.capacity
             && fail_close ~tol ~what:"class latency" lat1.Lognic.Latency.mean
                  lat2.Lognic.Latency.mean)
           a.Lognic.Extensions.classes
           (List.rev b.Lognic.Extensions.classes))

(* Contention monotonicity: a co-located aggressor can only take shared
   bytes and add slowdown — the victim's capacity and attained rate
   never improve over running alone. *)
let contention_monotonic ~count =
  QCheck.Test.make ~count
    ~name:"contention: adding a class never raises another's capacity"
    (arb
       (QCheck.Gen.quad Gen.low_load_mix_chain
          (QCheck.Gen.oneofl [ 0.5; 1.; 2. ])
          (QCheck.Gen.oneofl [ 0.5; 1.; 2. ])
          (QCheck.Gen.oneofl [ 0.; 0.5; 1. ]))
       ~print:(fun (s, d0, d1, m) ->
         Printf.sprintf "%s d0=%g d1=%g M01=%g" s.Gen.label d0 d1 m))
    (fun (sc, d0, d1, m01) ->
      let hw = Lognic.Params.with_resources sc.Gen.hw [ ("shared", 5e7) ] in
      let victim, aggressor =
        match sc.Gen.mix with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      let solo =
        Lognic.Estimate.run_mix sc.Gen.graph ~hw
          ~contention:
            (Lognic.Extensions.contention
               ~demands:[ [ ("shared", d0) ] ]
               ~interference:[| [| 0. |] |])
          ~mix:[ victim ]
      in
      let pair =
        Lognic.Estimate.run_mix sc.Gen.graph ~hw
          ~contention:
            (Lognic.Extensions.contention
               ~demands:[ [ ("shared", d0) ]; [ ("shared", d1) ] ]
               ~interference:[| [| 0.; m01 |]; [| 0.; 0. |] |])
          ~mix:[ victim; aggressor ]
      in
      let cap r =
        let _, _, tp, _ = List.hd r.Lognic.Extensions.classes in
        (tp.Lognic.Throughput.capacity, tp.Lognic.Throughput.attained)
      in
      let solo_cap, solo_att = cap solo and pair_cap, pair_att = cap pair in
      (pair_cap <= solo_cap
      || QCheck.Test.fail_reportf "capacity rose: alone %.12g, contended %.12g"
           solo_cap pair_cap)
      && (pair_att <= solo_att
         || QCheck.Test.fail_reportf
              "attained rose: alone %.12g, contended %.12g" solo_att pair_att))

(* The acceptance bar for the joint model: at low load, per-class mean
   latency from the joint evaluation tracks the simulator's per-class
   measurement within 5%. *)
let mix_low_load_latency ~count =
  QCheck.Test.make ~count
    ~name:"model-vs-sim: two-class low-load per-class latency within 5%"
    (arb Gen.low_load_mix_chain ~print:(fun s -> s.Gen.label))
    (fun sc ->
      let model =
        Lognic.Estimate.run_mix ~queue_model:Lognic.Latency.No_queueing
          sc.Gen.graph ~hw:sc.Gen.hw ~mix:sc.Gen.mix
      in
      let m =
        Sim.Netsim.execute
          (Sim.Netsim.Run.make ~config:low_load_config sc.Gen.graph ~hw:sc.Gen.hw
             ~mix:sc.Gen.mix)
      in
      let per_class = m.Sim.Netsim.summary.Sim.Telemetry.per_class in
      List.for_all2
        (fun (_, _, _, lat) (klass, delivered, sim_mean) ->
          delivered > 0
          && fail_close ~tol:0.05
               ~what:(Printf.sprintf "class %d mean latency" klass)
               lat.Lognic.Latency.mean sim_mean)
        model.Lognic.Extensions.classes per_class)

(* ---- multi-tenant SR-IOV --------------------------------------------- *)

module T = Sim.Tenant

let tenant_print specs =
  String.concat ","
    (List.map
       (fun (s : T.spec) ->
         Printf.sprintf "%s:%d:%g%s" s.T.name s.T.weight s.T.share
           (match s.T.slo_p99 with
           | None -> ""
           | Some x -> Printf.sprintf ":%g" x))
       specs)

let scenario_and_tenants =
  arb
    (QCheck.Gen.pair Gen.wild Gen.tenant_specs)
    ~print:(fun (sc, specs) -> sc.Gen.label ^ " [" ^ tenant_print specs ^ "]")

let tenant_config tset =
  Sim.Netsim.Config.(
    default |> with_horizon ~warmup:2e-4 2e-3 |> with_tenants tset)

let tenant_measure sc config =
  Sim.Netsim.execute
    (Sim.Netsim.Run.make ~config sc.Gen.graph ~hw:sc.Gen.hw ~mix:sc.Gen.mix)

let measurement_json m =
  Sim.Telemetry.Json.to_string (Sim.Netsim.measurement_to_json m)

let tenants_json m =
  match m.Sim.Netsim.tenants with
  | None -> "ABSENT"
  | Some stats -> Sim.Telemetry.Json.to_string (T.stats_to_json stats)

(* [Tenant.set] canonicalizes by name, so two permutations of the same
   tenant list must configure byte-identical runs — measurement JSON
   and per-tenant stats JSON both. *)
let tenant_order_invariant ~count =
  QCheck.Test.make ~count ~name:"tenants: spec order never changes results"
    scenario_and_tenants
    (fun (sc, specs) ->
      let run specs =
        let m = tenant_measure sc (tenant_config (T.set specs)) in
        (measurement_json m, tenants_json m)
      in
      run specs = run (List.rev specs)
      || QCheck.Test.fail_reportf "permuted tenant specs changed the run")

(* Saturate one node with equal offered shares and random weights:
   every tenant stays backlogged, so the stage-1 WRR must deliver
   packets in proportion to weight, and the weighted max-min index must
   sit near 1. Delivery is counted by birth time, so the window must
   dwarf the slowest tenant's queue sojourn (its last-born in-window
   packets complete after the horizon otherwise): 16 queued packets at
   the minimum weighted rate ≈ 0.8 ms against a 19 ms window keeps
   that truncation bias under the tolerance. *)
let tenant_wrr_fairness ~count =
  QCheck.Test.make ~count
    ~name:"tenants: saturated WRR delivers weight-proportional shares"
    (arb Gen.tenant_specs ~print:tenant_print)
    (fun specs ->
      let specs =
        List.map (fun (s : T.spec) -> T.spec ~weight:s.T.weight s.T.name) specs
      in
      let tset = T.set specs in
      let graph =
        Gen.single_node_graph ~parallelism:1 ~queue_capacity:16 ~throughput:1e9
      in
      let hw = Lognic.Params.hardware ~bw_interface:1e12 ~bw_memory:1e12 in
      let traffic = Lognic.Traffic.make ~rate:3e9 ~packet_size:1000. in
      let config =
        Sim.Netsim.Config.(
          default |> with_horizon ~warmup:1e-3 2e-2 |> with_tenants tset)
      in
      let m = Sim.Netsim.run_single ~config graph ~hw ~traffic in
      match m.Sim.Netsim.tenants with
      | None -> QCheck.Test.fail_reportf "tenanted run reported no tenant stats"
      | Some stats ->
        let per_weight =
          Array.map
            (fun (r : T.row) ->
              float_of_int r.T.r_delivered /. float_of_int r.T.r_weight)
            stats.T.rows
        in
        let mx = Array.fold_left Float.max 0. per_weight in
        let mn = Array.fold_left Float.min infinity per_weight in
        let spread = (mx -. mn) /. mx in
        let maxmin = stats.T.t_fairness.T.maxmin_ratio in
        (spread <= 0.15 && maxmin >= 0.85)
        || QCheck.Test.fail_reportf
             "unfair at saturation: weight-normalized delivery spread %.1f%%, \
              max-min ratio %.3f"
             (spread *. 100.) maxmin)

(* ---- flow-cache feedback splits -------------------------------------- *)

module FC = Lognic.Flowcache
module FApp = Lognic_apps.Flow_cache

(* Small cache/population sizes: the sim's cold-start fill time scales
   with table capacity, so tiny tables reach steady state within the
   short horizons a property suite can afford. *)
let fc_spec_gen st =
  let flows = QCheck.Gen.int_range 512 4096 st in
  let zipf = QCheck.Gen.float_range 0.2 1.3 st in
  let emc = QCheck.Gen.int_range 16 128 st in
  let megaflow = QCheck.Gen.int_range 128 1024 st in
  let ttl =
    if QCheck.Gen.bool st then Some (QCheck.Gen.float_range 1e-5 1e-2 st)
    else None
  in
  FC.spec ?ttl ~zipf ~emc_entries:emc ~megaflow_entries:megaflow ~flows ()

let fc_spec_print (s : FC.spec) =
  Printf.sprintf "flows=%d zipf=%g emc=%d mega=%d ttl=%s" s.FC.flows s.FC.zipf
    s.FC.emc_entries s.FC.megaflow_entries
    (match s.FC.ttl with None -> "-" | Some t -> Printf.sprintf "%g" t)

(* The damped fixed point must land on the same hit ratios from any
   interior starting guess — if two starts disagree, the "solution" is
   an artifact of the seed, not a fixed point. *)
let flowcache_fixed_point_converges ~count =
  QCheck.Test.make ~count
    ~name:"flowcache: fixed point converges from any start"
    (arb
       (QCheck.Gen.pair fc_spec_gen
          (QCheck.Gen.pair
             (QCheck.Gen.float_range 0.01 0.99)
             (QCheck.Gen.float_range 0.01 0.99)))
       ~print:(fun (s, (a, b)) ->
         Printf.sprintf "%s init=[%g;%g]" (fc_spec_print s) a b))
    (fun (spec, (i0, i1)) ->
      let g = FApp.graph FApp.default in
      let hw = FApp.hardware and traffic = FApp.traffic FApp.default in
      let r = FC.evaluate ~init:[| i0; i1 |] spec g ~hw ~traffic in
      let r' = FC.evaluate spec g ~hw ~traffic in
      (r.FC.converged
      || QCheck.Test.fail_reportf "no convergence from init [%g; %g]" i0 i1)
      && (r'.FC.converged
         || QCheck.Test.fail_reportf "no convergence from the default init")
      && r.FC.emc_hit_ratio >= 0.
      && r.FC.emc_hit_ratio <= 1.
      && r.FC.megaflow_hit_ratio >= 0.
      && r.FC.megaflow_hit_ratio <= 1.
      && fail_close ~tol:1e-6 ~what:"emc hit ratio (init independence)"
           r'.FC.emc_hit_ratio r.FC.emc_hit_ratio
      && fail_close ~tol:1e-6 ~what:"megaflow hit ratio (init independence)"
           r'.FC.megaflow_hit_ratio r.FC.megaflow_hit_ratio)

(* [hit_ratios] skips the Newton solve when the TTL binds. That must not
   show: with θ on either side of the characteristic time T, each ratio
   is 1 − exp(−rᵢ·min(T, θ)), bit for bit unless θ lies within 1e-9 of
   T, where the solve's own tolerance decides which side T lands on. *)
let flowcache_ttl_short_circuit ~count =
  let gen st =
    let flows = QCheck.Gen.int_range 1 4096 st in
    let zipf = QCheck.Gen.float_range 0. 1.5 st in
    let rate = 10. ** QCheck.Gen.float_range 3. 8. st in
    (* capacities past [flows] cover the population that fits (T = ∞) *)
    let capacity = QCheck.Gen.int_range 1 (flows + 64) st in
    let ttl_over_t = 10. ** QCheck.Gen.float_range (-1.) 1. st in
    (flows, zipf, rate, capacity, ttl_over_t)
  in
  QCheck.Test.make ~count
    ~name:"flowcache: TTL short-circuit = 1 - exp(-r min(T, ttl))"
    (arb gen ~print:(fun (flows, zipf, rate, capacity, k) ->
         Printf.sprintf "flows=%d zipf=%g rate=%g capacity=%d ttl/T=%g" flows
           zipf rate capacity k))
    (fun (flows, zipf, rate, capacity, ttl_over_t) ->
      let rates =
        Array.map (fun p -> rate *. p) (FC.zipf_weights ~flows ~s:zipf)
      in
      let t = FC.che_characteristic_time ~rates ~capacity in
      let theta =
        ttl_over_t
        *. if Float.is_finite t then t else float_of_int capacity /. rate
      in
      let h = FC.hit_ratios ~ttl:theta ~rates ~capacity () in
      let t_eff = Float.min t theta in
      let exact = Float.abs (t -. theta) > 1e-9 *. theta in
      let rec agree i =
        i >= flows
        ||
        let want = 1. -. exp (-.rates.(i) *. t_eff) in
        let what = Printf.sprintf "flow %d hit ratio (T %g, ttl %g)" i t theta in
        (if exact then fail_bits ~what want h.(i)
         else fail_close ~tol:1e-9 ~what want h.(i))
        && agree (i + 1)
      in
      agree 0)

(* Without a TTL the hit ratios are rate-independent, so the feedback
   machinery must collapse to a plain static split: rewriting the graph
   once with the converged ratios and running the ordinary estimator
   reproduces the fixed point's report bit for bit. *)
let flowcache_collapse_static ~count =
  QCheck.Test.make ~count
    ~name:"flowcache: no-TTL fixed point = static split, bit for bit"
    (arb fc_spec_gen ~print:fc_spec_print)
    (fun spec ->
      let spec = { spec with FC.ttl = None } in
      let g = FApp.graph FApp.default in
      let hw = FApp.hardware and traffic = FApp.traffic FApp.default in
      let r = FC.evaluate spec g ~hw ~traffic in
      let static =
        let v label =
          match G.find_vertex g ~label with
          | Some v -> v.G.id
          | None -> QCheck.Test.fail_reportf "scenario lost vertex %S" label
        in
        let h = r.FC.emc_hit_ratio and hm = r.FC.megaflow_hit_ratio in
        let g = G.scale_out_split g (v FC.emc_label) [ h; 1. -. h ] in
        G.scale_out_split g (v FC.megaflow_label) [ hm; 1. -. hm ]
      in
      let s = Lognic.Estimate.run static ~hw ~traffic in
      fail_bits ~what:"attained throughput"
        s.Lognic.Estimate.throughput.Lognic.Throughput.attained
        r.FC.throughput.Lognic.Throughput.attained
      && fail_bits ~what:"capacity"
           s.Lognic.Estimate.throughput.Lognic.Throughput.capacity
           r.FC.throughput.Lognic.Throughput.capacity
      && fail_bits ~what:"mean latency"
           s.Lognic.Estimate.latency.Lognic.Latency.mean
           r.FC.latency.Lognic.Latency.mean
      && fail_bits ~what:"carried rate"
           s.Lognic.Estimate.latency.Lognic.Latency.carried_rate
           r.FC.latency.Lognic.Latency.carried_rate)

(* ---- optional layers, one table ------------------------------------ *)

(* Every optional simulator layer as a row: how to switch it on for a
   fuzzed input and, where the layer has one, the setting that must run
   byte-identical to the plain run. For the observation-only layers
   (invariants, metrics, trace) that setting is "on" itself. *)
type layer_input = {
  sc : Gen.scenario;
  specs : T.spec list;
  fc : FC.spec;
  plan : Sim.Faults.plan;
}

type layer = {
  layer : string;
  on : layer_input -> Sim.Netsim.Run.t;
  neutral : (layer_input -> Sim.Netsim.Run.t) option;
}

let layer_horizon = 2e-3
let layer_config = Sim.Netsim.Config.(default |> with_horizon layer_horizon)

let plain_run i =
  Sim.Netsim.Run.make ~config:layer_config i.sc.Gen.graph ~hw:i.sc.Gen.hw
    ~mix:i.sc.Gen.mix

let configured f i = Sim.Netsim.Run.with_config (plain_run i) (f i layer_config)

let layers =
  let module C = Sim.Netsim.Config in
  let observed layer config =
    let run = configured (fun _ -> config) in
    { layer; on = run; neutral = Some run }
  in
  [
    { layer = "plain"; on = plain_run; neutral = None };
    {
      layer = "tenants";
      on = configured (fun i -> C.with_tenants (T.set i.specs));
      (* the tenanted scheduler and its rng split switch on at two *)
      neutral = Some (configured (fun i -> C.with_tenants (T.set [ List.hd i.specs ])));
    };
    {
      layer = "flow cache";
      (* lookups need the cache vertices: the flow-cache scenario *)
      on =
        (fun i ->
          Sim.Netsim.Run.make
            ~config:(C.with_flow_cache i.fc layer_config)
            (FApp.graph FApp.default) ~hw:FApp.hardware
            ~mix:[ (FApp.traffic FApp.default, 1.) ]);
      (* set and cleared: the flow rng splits only while configured *)
      neutral =
        Some (configured (fun i c -> C.(c |> with_flow_cache i.fc |> without_flow_cache)));
    };
    {
      layer = "faults";
      on = (fun i -> Sim.Netsim.Run.with_faults (plain_run i) i.plan);
      neutral = None;
    };
    observed "invariants" (C.with_invariants true);
    observed "metrics" (C.with_metrics { Sim.Metrics.default_config with interval = 2e-4 });
    observed "trace" (C.with_trace { Sim.Trace.reservoir = 32 });
  ]

let layer_input =
  arb
    QCheck.Gen.(
      map
        (fun (sc, specs, (fc, plan)) -> { sc; specs; fc; plan })
        (triple Gen.wild Gen.tenant_specs
           (pair fc_spec_gen (Gen.fault_plan ~duration:layer_horizon))))
    ~print:(fun i ->
      Printf.sprintf "%s [%s] %s, %d fault(s)" i.sc.Gen.label
        (tenant_print i.specs) (fc_spec_print i.fc) (List.length i.plan))

let layers_neutral_identity ~count =
  QCheck.Test.make ~count
    ~name:"layers: each neutral setting is byte-identical to the plain run"
    layer_input
    (fun i ->
      let plain = measurement_json (Sim.Netsim.execute (plain_run i)) in
      List.for_all
        (fun l ->
          match l.neutral with
          | None -> true
          | Some neutral ->
            measurement_json (Sim.Netsim.execute (neutral i)) = plain
            || QCheck.Test.fail_reportf "%s: measurement JSON diverged from the plain run"
                 l.layer)
        layers)

(* The determinism contract domain-parallel replication relies on,
   with each layer on. *)
let layers_jobs_bit_identical ~count =
  QCheck.Test.make ~count
    ~name:"layers: each layer is bit-identical at --jobs 1 and --jobs 4"
    layer_input
    (fun i ->
      List.for_all
        (fun l ->
          let spec = l.on i in
          Sim.Netsim.execute_replicated ~jobs:1 ~runs:3 spec
          = Sim.Netsim.execute_replicated ~jobs:4 ~runs:3 spec
          || QCheck.Test.fail_reportf "%s: replicated results diverge across jobs"
               l.layer)
        layers)

(* ---- colon-spec grammar round trip ----------------------------------- *)

(* [Spec.render] documents itself as the inverse of [Spec.parse]; check
   it over the tenant grammar's shape (required Str/Int plus optional
   Float tail) with every optional-suffix length. *)
let spec_round_trip ~count =
  let module Sp = Sim.Spec in
  let grammar =
    Sp.grammar ~flag:"tenant"
      [
        Sp.field "NAME" Sp.Str;
        Sp.field "WEIGHT" Sp.Int;
        Sp.field ~optional:true "SHARE" Sp.Float;
        Sp.field ~optional:true "SLO" Sp.Float;
      ]
  in
  let values_gen st =
    let name = QCheck.Gen.oneofl (Array.to_list Gen.tenant_names) st in
    let weight = QCheck.Gen.int_range 1 99 st in
    let fl () = QCheck.Gen.oneofl [ 0.5; 1.; 2.; 4.; 0.125; 1e-3 ] st in
    match QCheck.Gen.int_range 0 2 st with
    | 0 -> [| Sp.S name; Sp.I weight |]
    | 1 -> [| Sp.S name; Sp.I weight; Sp.F (fl ()) |]
    | _ -> [| Sp.S name; Sp.I weight; Sp.F (fl ()); Sp.F (fl ()) |]
  in
  QCheck.Test.make ~count ~name:"spec: render . parse = id"
    (arb values_gen ~print:(fun v -> Sp.render grammar v))
    (fun v ->
      let s = Sp.render grammar v in
      match Sp.parse grammar s with
      | Error e -> QCheck.Test.fail_reportf "rendered spec %S rejected: %s" s e
      | Ok v' ->
        v = v'
        || QCheck.Test.fail_reportf "round trip changed %S to %S" s
             (Sp.render grammar v'))

(* ---- event queue vs an ordered-map oracle ---------------------------- *)

(* [Lognic_sim.Event_queue] must hand out the exact lexicographic
   (time, seq) minimum, which [Queue_oracle] does by construction.
   Random op sequences drive the engine's locate/located_time/take
   triple and mix tie storms (integer times), near-uniform floats, huge,
   negative and infinite magnitudes, horizon-bounded takes right on the
   boundary, a bare [take] (legal only straight after a successful
   locate) and [clear] (reuse, vs a fresh oracle). *)
let queue_time_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map float_of_int (QCheck.Gen.int_range 0 4);
      QCheck.Gen.map
        (fun i -> float_of_int i *. 0.125)
        (QCheck.Gen.int_range 0 160);
      QCheck.Gen.float_range 0. 1e-3;
      QCheck.Gen.oneofl
        [ 0.; 1e-12; 1.; 1e9; 4.2e15; 1e300; infinity; -1.; -1e9; -1e300 ];
    ]

let queue_op_gen =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.map (fun t -> `Push t) queue_time_gen);
      (2, QCheck.Gen.return `Pop);
      (2, QCheck.Gen.map (fun h -> `Pop_before h) queue_time_gen);
      (1, QCheck.Gen.return `Peek);
      (1, QCheck.Gen.return `Take);
      (1, QCheck.Gen.return `Clear);
    ]

let queue_ops_gen =
  QCheck.Gen.list_size (QCheck.Gen.int_range 0 500) queue_op_gen

let queue_op_print = function
  | `Push t -> Printf.sprintf "push %h" t
  | `Pop -> "pop"
  | `Pop_before h -> Printf.sprintf "pop_before %h" h
  | `Peek -> "peek"
  | `Take -> "take"
  | `Clear -> "clear"

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let event_queue_matches_oracle ~count =
  QCheck.Test.make ~count
    ~name:"event queue: pop order = (time, seq)-ordered map"
    (arb
       ~print:(fun ops -> String.concat "; " (List.map queue_op_print ops))
       queue_ops_gen)
    (fun ops ->
      let module Q = Sim.Event_queue in
      let q = Q.create () in
      let oracle = ref Queue_oracle.empty in
      let payload = ref 0 in
      (* [true] straight after a [`Peek] whose locate succeeded *)
      let located = ref false in
      let fail op what =
        QCheck.Test.fail_reportf "%s: event queue %s oracle" (queue_op_print op)
          what
      in
      (* locate on both sides; when an event is found, its time must
         match and, with [~take:true], so must the taken payload *)
      let locate op ~horizon ~take =
        match (Q.locate q ~horizon, Queue_oracle.first !oracle ~horizon) with
        | false, None -> false
        | true, Some (time, p) ->
          if not (same_float (Q.located_time q) time) then
            fail op "locates a different time than the";
          if take then begin
            if Q.take q <> p then fail op "takes a different payload than the";
            oracle := Queue_oracle.remove_first !oracle
          end;
          true
        | _ -> fail op "disagrees on emptiness with the"
      in
      List.iter
        (fun op ->
          let was_located = !located in
          located := false;
          (match op with
          | `Push t ->
            incr payload;
            Q.push q ~time:t !payload;
            oracle := Queue_oracle.push !oracle ~time:t !payload
          | `Pop -> ignore (locate op ~horizon:infinity ~take:true)
          | `Pop_before h -> ignore (locate op ~horizon:h ~take:true)
          | `Peek -> located := locate op ~horizon:infinity ~take:false
          | `Take ->
            (match Q.take q with
            | p ->
              if not was_located then fail op "takes without a locate, unlike the";
              (match Queue_oracle.first !oracle ~horizon:infinity with
              | Some (_, p') when p = p' -> ()
              | _ -> fail op "takes a different payload than the");
              oracle := Queue_oracle.remove_first !oracle
            | exception Invalid_argument _ ->
              if was_located then fail op "refuses a located take, unlike the")
          | `Clear ->
            Q.clear q;
            oracle := Queue_oracle.empty);
          if Q.size q <> Queue_oracle.size !oracle then
            fail op "has a different size than the")
        ops;
      (* drain both completely: every queued event must come out in the
         same order *)
      while locate `Pop ~horizon:infinity ~take:true do
        ()
      done;
      Q.size q = 0 && Queue_oracle.size !oracle = 0)

(* ---- suite ----------------------------------------------------------- *)

(* [scale] multiplies each property's base case count, so callers can
   run a quick smoke (scale < 1) or a deep soak (scale > 1) from the
   same definitions. Sim-heavy properties get smaller bases. *)
let suite ?(scale = 1.) () =
  if not (scale > 0. && Float.is_finite scale) then
    invalid_arg "Props.suite: scale must be positive and finite";
  let n base = max 1 (int_of_float (Float.round (float_of_int base *. scale))) in
  [
    dsl_round_trip ~count:(n 500);
    mm1n_limit_is_mm1 ~count:(n 300);
    mg1_exponential_is_mm1 ~count:(n 300);
    mm1n_closed_form_near_saturation ~count:(n 300);
    model_vs_sim_latency ~count:(n 20);
    model_vs_sim_throughput ~count:(n 20);
    littles_law_vs_sim ~count:(n 6);
    mm1n_vs_sim_sojourn ~count:(n 6);
    invariants_hold_everywhere ~count:(n 20);
    routing_residual_mass ~count:(n 20);
    event_queue_matches_oracle ~count:(n 500);
    mix_single_class_limit ~count:(n 50);
    mix_identical_classes_collapse ~count:(n 6);
    mix_permutation_invariant ~count:(n 100);
    contention_monotonic ~count:(n 100);
    mix_low_load_latency ~count:(n 6);
    tenant_order_invariant ~count:(n 6);
    tenant_wrr_fairness ~count:(n 6);
    flowcache_fixed_point_converges ~count:(n 20);
    flowcache_ttl_short_circuit ~count:(n 200);
    flowcache_collapse_static ~count:(n 20);
    layers_neutral_identity ~count:(n 6);
    layers_jobs_bit_identical ~count:(n 4);
    spec_round_trip ~count:(n 300);
  ]
