(* Tests for the fault-injection subsystem: the Run-spec wrappers, the
   empty-plan identity, --jobs invariance of faulted runs, the Faults
   plan algebra, Degraded's modifier application, and the model-vs-sim
   agreement of the degraded evaluator on engine-failure and
   link-degradation scenarios. *)

open Helpers
module S = Lognic_sim
module F = S.Faults
module D = Lognic.Degraded
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic

(* The validation pipeline: in (25G) -> ip (4G, 4 engines, N=64) ->
   out (25G), every edge crossing the interface. *)
let pipeline () =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:
        (G.service ~throughput:(4. *. U.gbps) ~parallelism:4 ~queue_capacity:64 ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:w ~dst:e g in
  g

let hw = Lognic.Params.hardware ~bw_interface:(50. *. U.gbps) ~bw_memory:(60. *. U.gbps)
let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500.
let mix = [ (traffic, 1.) ]
let config = S.Netsim.Config.(default |> with_horizon 0.02)

(* --- smart constructors ------------------------------------------- *)

let constructors_validate () =
  check_raises_invalid "stop <= start" (fun () ->
      F.engine_down ~vertex:"ip" ~engines:1 ~start:0.5 ~stop:0.5);
  check_raises_invalid "negative start" (fun () ->
      F.drop_burst ~probability:0.5 ~start:(-1.) ~stop:1.);
  check_raises_invalid "engines < 1" (fun () ->
      F.engine_down ~vertex:"ip" ~engines:0 ~start:0. ~stop:1.);
  check_raises_invalid "factor 0" (fun () ->
      F.medium_degraded ~medium:"interface" ~factor:0. ~start:0. ~stop:1.);
  check_raises_invalid "factor > 1" (fun () ->
      F.medium_degraded ~medium:"interface" ~factor:1.5 ~start:0. ~stop:1.);
  check_raises_invalid "capacity < 1" (fun () ->
      F.queue_shrunk ~vertex:"ip" ~capacity:0 ~start:0. ~stop:1.);
  check_raises_invalid "probability > 1" (fun () ->
      F.drop_burst ~probability:1.5 ~start:0. ~stop:1.);
  check_raises_invalid "non-finite stop" (fun () ->
      F.engine_down ~vertex:"ip" ~engines:1 ~start:0. ~stop:Float.nan)

(* --- plan algebra -------------------------------------------------- *)

let intervals_partition () =
  let a = F.engine_down ~vertex:"ip" ~engines:1 ~start:0.2 ~stop:0.6 in
  let b = F.medium_degraded ~medium:"interface" ~factor:0.5 ~start:0.4 ~stop:0.8 in
  let ivs = F.intervals ~duration:1. [ a; b ] in
  let shape =
    List.map (fun (lo, hi, evs) -> (lo, hi, List.length evs)) ivs
  in
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int)))
    "boundaries and active counts"
    [
      (0., 0.2, 0);
      (0.2, 0.4, 1);
      (0.4, 0.6, 2);
      (0.6, 0.8, 1);
      (0.8, 1., 0);
    ]
    shape;
  (* empty plan: one healthy interval *)
  Alcotest.(check (list (triple (float 1e-9) (float 1e-9) int)))
    "empty plan" [ (0., 1., 0) ]
    (List.map (fun (lo, hi, evs) -> (lo, hi, List.length evs))
       (F.intervals ~duration:1. F.empty));
  (* events past the horizon are clipped away *)
  let late = F.drop_burst ~probability:0.5 ~start:2. ~stop:3. in
  Alcotest.(check int) "late event clipped" 1
    (List.length (F.intervals ~duration:1. [ late ]));
  check_raises_invalid "non-positive duration" (fun () ->
      F.intervals ~duration:0. [ a ])

let modifiers_compose () =
  let plan =
    [
      F.engine_down ~vertex:"ip" ~engines:1 ~start:0. ~stop:1.;
      F.engine_down ~vertex:"ip" ~engines:2 ~start:0. ~stop:1.;
      F.medium_degraded ~medium:"interface" ~factor:0.5 ~start:0. ~stop:1.;
      F.medium_degraded ~medium:"interface" ~factor:0.5 ~start:0. ~stop:1.;
      F.drop_burst ~probability:0.5 ~start:0. ~stop:1.;
      F.drop_burst ~probability:0.5 ~start:0. ~stop:1.;
    ]
  in
  match F.modifiers ~duration:1. plan with
  | [ (_, _, m) ] ->
    (* duplicate targets stay as separate entries and fold at apply
       time (engines sum, factors multiply) — assert the fold *)
    Alcotest.(check int) "engines sum" 3
      (List.fold_left
         (fun acc (v, n) -> if v = "ip" then acc + n else acc)
         0 m.D.engines_down);
    check_close "factors multiply" 0.25
      (List.fold_left
         (fun acc (l, f) -> if l = "interface" then acc *. f else acc)
         1. m.D.media_factors);
    check_close "burst survival multiplies" 0.75 m.D.ingress_drop;
    Alcotest.(check bool) "degraded" true (D.is_degraded m)
  | _ -> Alcotest.fail "expected a single interval"

(* --- Degraded.apply_modifier -------------------------------------- *)

let apply_modifier_scales () =
  let g = pipeline () in
  let nominal = Lognic.Throughput.capacity g ~hw in
  check_close "nominal capacity is the ip" (4. *. U.gbps) nominal;
  (* two of four engines down: the binding vertex halves *)
  let m = { D.no_modifier with D.engines_down = [ ("ip", 2) ] } in
  let g', hw', failed = D.apply_modifier g ~hw m in
  Alcotest.(check bool) "no full failure" true (failed = None);
  check_close "capacity halves" (2. *. U.gbps)
    (Lognic.Throughput.capacity g' ~hw:hw');
  (match G.find_vertex g' ~label:"ip" with
  | Some v -> Alcotest.(check int) "parallelism shrinks" 2 v.G.service.G.parallelism
  | None -> Alcotest.fail "ip vanished");
  (* all engines down: reported as fully failed, graph untouched *)
  let m = { D.no_modifier with D.engines_down = [ ("ip", 4) ] } in
  let _, _, failed = D.apply_modifier g ~hw m in
  (match G.find_vertex g ~label:"ip" with
  | Some v ->
    Alcotest.(check bool) "full failure reported" true (failed = Some v.G.id)
  | None -> Alcotest.fail "ip vanished");
  (* interface factor scales the hardware *)
  let m = { D.no_modifier with D.media_factors = [ ("interface", 0.5) ] } in
  let _, hw', _ = D.apply_modifier g ~hw m in
  check_close "interface halves" (25. *. U.gbps) hw'.Lognic.Params.bw_interface;
  check_close "memory untouched" (60. *. U.gbps) hw'.Lognic.Params.bw_memory;
  (* queue caps min-combine with the vertex's own N *)
  let m = { D.no_modifier with D.queue_caps = [ ("ip", 8) ] } in
  let g', _, _ = D.apply_modifier g ~hw m in
  (match G.find_vertex g' ~label:"ip" with
  | Some v -> Alcotest.(check int) "queue capped" 8 v.G.service.G.queue_capacity
  | None -> Alcotest.fail "ip vanished");
  (* unknown labels are ignored *)
  let m = { D.no_modifier with D.engines_down = [ ("nope", 1) ] } in
  let g', hw', failed = D.apply_modifier g ~hw m in
  Alcotest.(check bool) "unknown label is a no-op" true
    (failed = None
    && Lognic.Throughput.capacity g' ~hw:hw' = nominal)

let evaluate_nominal_identity () =
  let g = pipeline () in
  let r =
    D.evaluate g ~hw ~traffic ~intervals:[ (0., 1., D.no_modifier) ]
  in
  check_close "degraded = nominal throughput" r.D.nominal_throughput
    r.D.degraded_throughput;
  check_close "availability 1" 1. r.D.availability;
  Alcotest.(check bool) "no worst interval" true (r.D.worst = None)

(* --- Run-spec wrappers -------------------------------------------- *)

let wrappers_equivalent () =
  let g = pipeline () in
  let legacy = S.Netsim.run ~config g ~hw ~mix in
  let spec = S.Netsim.Run.make ~config g ~hw ~mix in
  let via_spec = S.Netsim.execute spec in
  Alcotest.(check string) "run = execute(Run.make), byte-identical JSON"
    (S.Telemetry.Json.to_string (S.Netsim.measurement_to_json legacy))
    (S.Telemetry.Json.to_string (S.Netsim.measurement_to_json via_spec));
  let single = S.Netsim.run_single ~config g ~hw ~traffic in
  let via_single = S.Netsim.execute (S.Netsim.Run.single ~config g ~hw ~traffic) in
  Alcotest.(check bool) "run_single = execute(Run.single)" true
    (single = via_single)

let with_setters_update () =
  let g = pipeline () in
  let spec = S.Netsim.Run.make ~config g ~hw ~mix in
  let spec =
    S.Netsim.Run.with_config spec
      S.Netsim.Config.(config |> with_seed 42 |> with_duration 0.01)
  in
  Alcotest.(check int) "seed set" 42 spec.S.Netsim.Run.config.S.Netsim.seed;
  check_close "duration set" 0.01 spec.S.Netsim.Run.config.S.Netsim.duration;
  let plan = [ F.drop_burst ~probability:0.5 ~start:0. ~stop:0.01 ] in
  let spec = S.Netsim.Run.with_faults spec plan in
  Alcotest.(check bool) "faults set" true (spec.S.Netsim.Run.faults == plan)

(* --- empty-plan / no-op-plan identity ------------------------------ *)

let empty_plan_identity () =
  let g = pipeline () in
  let base = S.Netsim.run ~config g ~hw ~mix in
  Alcotest.(check bool) "no fault intervals" true (base.S.Netsim.fault_intervals = []);
  Alcotest.(check bool) "no resilience" true (base.S.Netsim.resilience = None);
  (* a plan whose only fault is a zero-probability burst realizes the
     whole fault machinery (own rng stream, per-packet interval
     accounting) yet must not perturb a single measured quantity *)
  let plan = [ F.drop_burst ~probability:0. ~start:0. ~stop:config.S.Netsim.duration ] in
  let faulted =
    S.Netsim.execute (S.Netsim.Run.make ~config ~faults:plan g ~hw ~mix)
  in
  Alcotest.(check bool) "summary unperturbed" true
    (base.S.Netsim.summary = faulted.S.Netsim.summary);
  Alcotest.(check bool) "vertex stats unperturbed" true
    (base.S.Netsim.vertex_stats = faulted.S.Netsim.vertex_stats);
  Alcotest.(check bool) "medium stats unperturbed" true
    (base.S.Netsim.medium_stats = faulted.S.Netsim.medium_stats);
  Alcotest.(check bool) "accounting present under the no-op plan" true
    (faulted.S.Netsim.fault_intervals <> [])

let unknown_targets_rejected () =
  let g = pipeline () in
  let run plan =
    ignore (S.Netsim.execute (S.Netsim.Run.make ~config ~faults:plan g ~hw ~mix))
  in
  check_raises_invalid "unknown vertex" (fun () ->
      run [ F.engine_down ~vertex:"nope" ~engines:1 ~start:0. ~stop:0.01 ]);
  check_raises_invalid "unknown medium" (fun () ->
      run [ F.medium_degraded ~medium:"link-a-b" ~factor:0.5 ~start:0. ~stop:0.01 ])

(* --- determinism of faulted runs at any job count ------------------ *)

let faulted_jobs_invariant () =
  let g = pipeline () in
  let plan =
    [
      F.engine_down ~vertex:"ip" ~engines:3 ~start:0.004 ~stop:0.01;
      F.medium_degraded ~medium:"interface" ~factor:0.5 ~start:0.008 ~stop:0.014;
      F.drop_burst ~probability:0.3 ~start:0.002 ~stop:0.006;
      F.queue_shrunk ~vertex:"ip" ~capacity:4 ~start:0.012 ~stop:0.018;
    ]
  in
  let spec = S.Netsim.Run.make ~config ~faults:plan g ~hw ~mix in
  let sequential = S.Netsim.execute_replicated ~runs:4 spec in
  List.iter
    (fun jobs ->
      let parallel = S.Parallel.execute_replicated ~jobs ~runs:4 spec in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs:%d" jobs)
        true
        (sequential = parallel))
    [ 1; 2; 4 ];
  Alcotest.(check bool) "across-run resilience present" true
    (sequential.S.Netsim.resilience <> None)

(* --- degraded model vs simulation ---------------------------------- *)

let long_config = S.Netsim.Config.(config |> with_horizon ~warmup:0.005 0.05)

(* Engine failure: 3 of 4 engines down squeezes the ip to 1 Gbps under
   a 2 Gbps offered load — the model says carried = 1 Gbps during the
   outage, 2 Gbps either side; the simulator should agree per interval
   (generous tolerances: intervals are transient, the model is
   steady-state). *)
let engine_failure_agreement () =
  let g = pipeline () in
  let plan = [ F.engine_down ~vertex:"ip" ~engines:3 ~start:0.015 ~stop:0.035 ] in
  let r = Lognic_sim.Resilience.run ~config:long_config g ~hw ~traffic ~plan in
  Alcotest.(check int) "three intervals" 3 (List.length r.S.Resilience.rows);
  List.iter
    (fun (row : S.Resilience.row) ->
      let pct = if row.r_degraded then 20. else 12. in
      check_within ~pct
        (Printf.sprintf "throughput agrees on [%g, %g)" row.r_start row.r_stop)
        row.model_throughput row.sim_throughput)
    r.S.Resilience.rows;
  (* the faulted interval carries half or less of the healthy rate *)
  (match List.find_opt (fun (row : S.Resilience.row) -> row.r_degraded) r.S.Resilience.rows with
  | Some row ->
    Alcotest.(check bool) "degradation visible in the sim" true
      (row.sim_throughput < 0.75 *. traffic.T.rate);
    Alcotest.(check bool) "SLO violated during the outage" true (not row.slo_ok)
  | None -> Alcotest.fail "no degraded interval");
  check_within ~pct:15. "composite degraded throughput agrees"
    r.S.Resilience.model.D.degraded_throughput r.S.Resilience.sim_degraded_throughput

(* Link degradation: the interface at 4% of its bandwidth becomes the
   1 Gbps bottleneck (50G * 0.04 / Sum-alpha=2). The post-fault interval
   gets a looser tolerance: transfers admitted during the fault were
   committed at the degraded rate, so the restored medium rejects
   arrivals for the few milliseconds it takes those commitments to
   clear — a drain transient the steady-state model doesn't see. *)
let link_degradation_agreement () =
  let g = pipeline () in
  let config = S.Netsim.Config.(config |> with_horizon ~warmup:0.005 0.1) in
  let plan =
    [ F.medium_degraded ~medium:"interface" ~factor:0.04 ~start:0.02 ~stop:0.04 ]
  in
  let r = Lognic_sim.Resilience.run ~config g ~hw ~traffic ~plan in
  List.iter
    (fun (row : S.Resilience.row) ->
      let pct =
        if row.r_degraded then 20. else if row.r_start > 0.02 then 25. else 12.
      in
      check_within ~pct
        (Printf.sprintf "throughput agrees on [%g, %g)" row.r_start row.r_stop)
        row.model_throughput row.sim_throughput)
    r.S.Resilience.rows;
  (match List.find_opt (fun (row : S.Resilience.row) -> row.r_degraded) r.S.Resilience.rows with
  | Some row ->
    check_within ~pct:20. "degraded interval pinned at the squeezed link"
      (1. *. U.gbps) row.sim_throughput
  | None -> Alcotest.fail "no degraded interval");
  (* model availability: 20 ms of 100 ms violates *)
  check_close ~tol:1e-6 "model availability" 0.8 r.S.Resilience.model.D.availability

let empty_plan_resilience_degenerates () =
  let g = pipeline () in
  let r = Lognic_sim.Resilience.run ~config g ~hw ~traffic ~plan:F.empty in
  Alcotest.(check int) "single healthy row" 1 (List.length r.S.Resilience.rows);
  let row = List.hd r.S.Resilience.rows in
  Alcotest.(check bool) "healthy" true (not row.S.Resilience.r_degraded);
  check_close "sim side is the whole-run summary"
    r.S.Resilience.measurement.S.Netsim.summary.S.Telemetry.throughput
    row.S.Resilience.sim_throughput;
  Alcotest.(check bool) "no recovery stats" true (r.S.Resilience.resilience = None)

let recovery_observed () =
  let g = pipeline () in
  (* fault clears at 0.02 with 30 ms of healthy runway: recovery must be
     observed, and promptly (light load, small queue backlog) *)
  let plan = [ F.engine_down ~vertex:"ip" ~engines:3 ~start:0.01 ~stop:0.02 ] in
  let m =
    S.Netsim.execute
      (S.Netsim.Run.single ~config:long_config ~faults:plan g ~hw ~traffic)
  in
  match m.S.Netsim.resilience with
  | Some { F.recovery_time = Some rt; worst_start; _ } ->
    Alcotest.(check bool) "recovers within 10 ms" true (rt >= 0. && rt < 0.01);
    Alcotest.(check bool) "worst interval lies inside the fault window" true
      (worst_start >= 0.01 && worst_start < 0.02)
  | Some { F.recovery_time = None; _ } ->
    Alcotest.fail "recovery not observed"
  | None -> Alcotest.fail "no resilience summary"

(* The md5-faults golden run with every observation-only layer on (its
   JSON byte-identity is the golden [md5-faults-all-layers] row). Burst
   sheds at ingress and queue/buffer drops mid-walk resolve through one
   drop recorder, so the run's invariants stay clean and the lone
   tenant is charged every windowed drop. *)
let all_layers_drop_path () =
  let m = S.Netsim.execute (Lognic_check.Golden.md5_faults_all_layers ()) in
  let summary = m.S.Netsim.summary in
  Alcotest.(check bool) "burst sheds recorded" true
    (match List.assoc_opt S.Telemetry.Fault_burst summary.S.Telemetry.drop_breakdown with
    | Some n -> n > 0
    | None -> false);
  (match m.S.Netsim.invariants with
  | Some r ->
    Alcotest.(check int) "no invariant violations" 0 r.S.Invariants.total_violations
  | None -> Alcotest.fail "invariant report missing");
  match m.S.Netsim.tenants with
  | Some { S.Tenant.rows = [| solo |]; _ } ->
    Alcotest.(check int) "solo tenant dropped = summary dropped"
      summary.S.Telemetry.dropped_packets solo.S.Tenant.r_dropped
  | _ -> Alcotest.fail "expected one tenant row"

let faults_json_versioned () =
  let g = pipeline () in
  let plan = [ F.engine_down ~vertex:"ip" ~engines:3 ~start:0.004 ~stop:0.01 ] in
  let r = Lognic_sim.Resilience.run ~config g ~hw ~traffic ~plan in
  let s = S.Telemetry.Json.to_string (Lognic_sim.Resilience.to_json r) in
  Alcotest.(check bool) "schema stamped" true
    (contains_substring s "\"schema\":\"faults\"");
  Alcotest.(check bool) "schema_version stamped" true
    (contains_substring s "\"schema_version\":1");
  let text = Format.asprintf "%a" Lognic_sim.Resilience.pp r in
  Alcotest.(check bool) "text mentions the fault" true
    (contains_substring text "engine_down:ip")

let suite =
  [
    quick "constructors: reject bad windows and parameters" constructors_validate;
    quick "intervals: constant-fault partition" intervals_partition;
    quick "modifiers: overlapping faults compose" modifiers_compose;
    quick "degraded: apply_modifier scales D'/B'/N'" apply_modifier_scales;
    quick "degraded: nominal intervals change nothing" evaluate_nominal_identity;
    quick "run-spec: wrappers byte-identical" wrappers_equivalent;
    quick "run-spec: with_* setters" with_setters_update;
    quick "faults: no-op plan never perturbs measurements" empty_plan_identity;
    quick "faults: unknown targets rejected eagerly" unknown_targets_rejected;
    slow "faults: replications bit-identical at any --jobs" faulted_jobs_invariant;
    slow "resilience: engine failure, model vs sim" engine_failure_agreement;
    slow "resilience: link degradation, model vs sim" link_degradation_agreement;
    quick "resilience: empty plan degenerates" empty_plan_resilience_degenerates;
    slow "resilience: recovery time observed" recovery_observed;
    quick "resilience: versioned JSON and text" faults_json_versioned;
    quick "faults: all layers on, one drop path" all_layers_drop_path;
  ]
