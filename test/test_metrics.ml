(* Tests for the live metrics layer: SLO rule grammar, histogram
   bucketing (unrolled fast path and oversized-bounds fallback),
   delta/rate arithmetic, alert hysteresis, the zero-perturbation
   guarantee under Netsim, the streaming serializer's byte-equality
   with the JSON-tree exporter, OpenMetrics output, the self-profiler,
   and the central Schema registry. *)

open Helpers
module S = Lognic_sim
module M = Lognic_sim.Metrics
module J = Lognic_sim.Telemetry.Json
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic

(* ------------------------------------------------------------------ *)
(* SLO rule grammar.                                                  *)

let slo_parse_roundtrip () =
  let roundtrips s =
    let r = M.Slo.parse_exn s in
    Alcotest.(check string) (s ^ " round-trips") s (M.Slo.to_string r)
  in
  List.iter roundtrips
    [
      "utilization>0.95";
      "cores.utilization>0.95x3";
      "queue_depth<2";
      "run.dropped>0";
      "backlog_bytes^4";
      "memory.latency_p99>0.001x2";
    ];
  let r = M.Slo.parse_exn "utilization>0.9" in
  Alcotest.(check string) "entity defaults to *" "*" r.M.Slo.r_entity;
  Alcotest.(check int) "for defaults to 1" 1 r.M.Slo.r_for;
  Alcotest.(check bool) "wildcard matches" true
    (M.Slo.matches r ~entity:"anything" ~metric:"utilization");
  Alcotest.(check bool) "metric must match" false
    (M.Slo.matches r ~entity:"anything" ~metric:"other");
  let pinned = M.Slo.parse_exn "cores.utilization>0.9" in
  Alcotest.(check bool) "pinned entity matches" true
    (M.Slo.matches pinned ~entity:"cores" ~metric:"utilization");
  Alcotest.(check bool) "pinned entity rejects others" false
    (M.Slo.matches pinned ~entity:"memory" ~metric:"utilization");
  List.iter
    (fun bad ->
      match M.Slo.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ ""; "utilization"; ">0.9"; "m>abc"; "m^0"; "m^-1"; "m>1x0" ]

(* ------------------------------------------------------------------ *)
(* Histograms.                                                        *)

(* One observation of [v], recorded the way the simulator records a
   latency: as the span between two slots of a float array. *)
let observe h v = M.observe_span h [| 0.; v |] ~from_slot:0 ~to_slot:1

(* (count, sum, p50, p99) of one histogram after a tick *)
let hist_sample t entity name =
  let snap = M.tick t ~now:1e-3 in
  let e = List.find (fun e -> e.M.e_name = entity) snap.M.s_entities in
  match List.assoc name e.M.e_samples with
  | M.Hist_s { count; sum; p50; p99 } -> (count, sum, p50, p99)
  | _ -> Alcotest.failf "%s.%s is not a histogram" entity name

let histogram_buckets_and_quantiles () =
  let t = M.create M.default_config in
  let h = M.histogram t ~entity:"e" ~name:"lat" ~bounds:[| 1.; 2.; 4. |] () in
  List.iter (observe h) [ 0.5; 1.5; 3.; 10. ];
  let count, sum, p50, p99 = hist_sample t "e" "lat" in
  Alcotest.(check int) "count" 4 count;
  check_close "sum" 15. sum;
  (* target ceil(0.5*4)=2 -> second bucket's upper bound *)
  check_close "p50 bucket bound" 2. p50;
  (* the +inf bucket reports the largest finite bound *)
  check_close "p99 bucket bound" 4. p99

(* Exact-boundary values land in the bucket they bound (search is a
   lower bound over upper bounds), on both the 32-entry unrolled path
   and the recursive fallback for oversized custom bound sets. *)
let histogram_paths_agree () =
  let expected_bucket bounds v =
    let n = Array.length bounds in
    let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
    go 0
  in
  let check_bounds bounds values =
    let n = Array.length bounds in
    List.iter
      (fun v ->
        let t = M.create M.default_config in
        let h = M.histogram t ~entity:"e" ~name:"m" ~bounds () in
        observe h v;
        let _, _, p50, _ = hist_sample t "e" "m" in
        let i = expected_bucket bounds v in
        let want = if i >= n then bounds.(n - 1) else bounds.(i) in
        check_close
          (Printf.sprintf "n=%d v=%g lands at bound %g" n v want)
          want p50)
      values
  in
  (* n+1 <= 32: the unrolled five-compare search *)
  check_bounds
    (Array.init 31 (fun i -> float_of_int (i + 1)))
    [ 0.5; 1.; 1.0000001; 17.3; 30.9; 31.; 1000. ];
  (* n+1 > 32: the recursive lower-bound fallback *)
  check_bounds
    (Array.init 40 (fun i -> float_of_int (i + 1)))
    [ 0.5; 1.; 17.3; 39.5; 40.; 1000. ]

(* ------------------------------------------------------------------ *)
(* Delta / rate arithmetic across ticks.                              *)

let scalar_samples () =
  let t = M.create M.default_config in
  let c = ref 0. and g = ref 0. and busy = ref 0. in
  M.register t ~entity:"e" ~name:"done" M.Counter (fun () -> !c);
  M.register t ~entity:"e" ~name:"depth" M.Gauge (fun () -> !g);
  M.register t ~entity:"e" ~name:"utilization" M.Rate (fun () -> !busy);
  let sample snap name =
    let e = List.hd snap.M.s_entities in
    List.assoc name e.M.e_samples
  in
  c := 5.;
  g := 3.;
  busy := 0.5;
  let s1 = M.tick t ~now:1.0 in
  (match sample s1 "done" with
  | M.Counter_s { total; delta } ->
    check_close "counter total" 5. total;
    check_close "counter delta" 5. delta
  | _ -> Alcotest.fail "counter kind");
  (match sample s1 "depth" with
  | M.Gauge_s { value } -> check_close "gauge value" 3. value
  | _ -> Alcotest.fail "gauge kind");
  (match sample s1 "utilization" with
  | M.Rate_s { value; total } ->
    (* 0.5 busy-seconds over a 1 s interval *)
    check_close "rate value" 0.5 value;
    check_close "rate total" 0.5 total
  | _ -> Alcotest.fail "rate kind");
  c := 12.;
  g := 1.;
  busy := 1.5;
  let s2 = M.tick t ~now:3.0 in
  (match sample s2 "done" with
  | M.Counter_s { total; delta } ->
    check_close "counter total'" 12. total;
    check_close "counter delta'" 7. delta
  | _ -> Alcotest.fail "counter kind");
  (match sample s2 "utilization" with
  | M.Rate_s { value; _ } ->
    (* 1.0 more busy-seconds over a 2 s interval *)
    check_close "rate value'" 0.5 value
  | _ -> Alcotest.fail "rate kind");
  check_close "interval is since previous tick" 2. s2.M.s_interval;
  Alcotest.(check int) "seq increments" 2 s2.M.s_seq;
  Alcotest.(check int) "snapshots counts ticks" 2 (M.snapshots t)

(* ------------------------------------------------------------------ *)
(* Alert hysteresis.                                                  *)

let alert_events snap = snap.M.s_alerts

let hysteresis_fire_and_resolve () =
  let t =
    M.create
      { M.default_config with slo = [ M.Slo.parse_exn "e.depth>10x2" ] }
  in
  let g = ref 0. in
  M.register t ~entity:"e" ~name:"depth" M.Gauge (fun () -> !g);
  let step now v =
    g := v;
    alert_events (M.tick t ~now)
  in
  Alcotest.(check int) "1st breach: armed, not fired" 0 (List.length (step 1. 20.));
  (match step 2. 20. with
  | [ ev ] ->
    Alcotest.(check bool) "fires on 2nd consecutive breach" true ev.M.ev_firing;
    Alcotest.(check string) "names the entity" "e" ev.M.ev_entity;
    Alcotest.(check string) "carries the rule" "e.depth>10x2" ev.M.ev_rule;
    check_close "carries the value" 20. ev.M.ev_value
  | evs -> Alcotest.failf "expected 1 firing event, got %d" (List.length evs));
  Alcotest.(check int) "steady breach: no re-fire" 0 (List.length (step 3. 25.));
  Alcotest.(check int) "1st clean interval: still active" 0
    (List.length (step 4. 5.));
  (match step 5. 5. with
  | [ ev ] ->
    Alcotest.(check bool) "resolves after 2 clean intervals" false ev.M.ev_firing
  | evs -> Alcotest.failf "expected 1 resolve event, got %d" (List.length evs));
  match M.alerts t with
  | [ a ] ->
    Alcotest.(check bool) "inactive after resolve" false a.M.a_active;
    check_close "first_fired at the firing tick" 2. a.M.a_first_fired;
    check_close "last_fired at the last breach" 3. a.M.a_last_fired;
    Alcotest.(check int) "breached intervals counted" 3 a.M.a_breaches;
    check_close "worst breaching value" 25. a.M.a_worst
  | l -> Alcotest.failf "expected 1 alert state, got %d" (List.length l)

let rising_rule_fires () =
  let t =
    M.create { M.default_config with slo = [ M.Slo.parse_exn "e.depth^3" ] }
  in
  let g = ref 0. in
  M.register t ~entity:"e" ~name:"depth" M.Gauge (fun () -> !g);
  let step now v =
    g := v;
    alert_events (M.tick t ~now)
  in
  Alcotest.(check int) "seed value" 0 (List.length (step 1. 1.));
  Alcotest.(check int) "rising x1" 0 (List.length (step 2. 2.));
  Alcotest.(check int) "rising x2" 0 (List.length (step 3. 3.));
  (match step 4. 4. with
  | [ ev ] -> Alcotest.(check bool) "fires on 3rd rise" true ev.M.ev_firing
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  Alcotest.(check int) "flat value does not re-arm" 0 (List.length (step 5. 4.))

(* Histogram ticks synthesize NAME_p50 / NAME_p99 for rules to target. *)
let histogram_slo_target () =
  let t =
    M.create { M.default_config with slo = [ M.Slo.parse_exn "e.lat_p99>3" ] }
  in
  let h = M.histogram t ~entity:"e" ~name:"lat" ~bounds:[| 1.; 2.; 4. |] () in
  List.iter (observe h) [ 0.5; 0.5; 0.5; 10. ];
  match alert_events (M.tick t ~now:1.) with
  | [ ev ] ->
    Alcotest.(check string) "p99 rule fired" "e.lat_p99>3" ev.M.ev_rule;
    check_close "at the bucket bound" 4. ev.M.ev_value
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Netsim integration: zero perturbation, snapshot cadence.           *)

let pipeline () =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i =
    G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g
  in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput:(4. *. U.gbps) ~queue_capacity:16 ())
      g
  in
  let g, e =
    G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g
  in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:i ~dst:w g in
  G.add_edge ~delta:1. ~alpha:1. ~src:w ~dst:e g

let hw =
  Lognic.Params.hardware ~bw_interface:(50. *. U.gbps)
    ~bw_memory:(60. *. U.gbps)

let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500.

let base_config = S.Netsim.Config.(default |> with_horizon 5e-3)

let measurement_json config =
  J.to_string
    (S.Netsim.measurement_to_json
       (S.Netsim.run_single ~config (pipeline ()) ~hw ~traffic))

let metrics_bit_identical () =
  let snaps = ref 0 in
  let metrics =
    {
      M.default_config with
      interval = 2e-4;
      slo = [ M.Slo.parse_exn "*.utilization>0.5" ];
      on_snapshot = Some (fun _ -> incr snaps);
    }
  in
  let bare = measurement_json base_config in
  let streamed =
    measurement_json (S.Netsim.Config.with_metrics metrics base_config)
  in
  Alcotest.(check string)
    "measurement JSON identical with metrics on/off" bare streamed;
  (* 5 ms horizon / 200 µs interval, plus the final flush tick *)
  Alcotest.(check bool)
    (Printf.sprintf "snapshot cadence (%d snapshots)" !snaps)
    true
    (!snaps >= 25 && !snaps <= 27)

(* Metrics compose with the parallel driver: replication stats stay
   bit-identical at any jobs count with a registry attached. *)
let metrics_jobs_invariant () =
  let config =
    S.Netsim.Config.with_metrics
      { M.default_config with interval = 2e-4 }
      base_config
  in
  let spec = S.Netsim.Run.single ~config (pipeline ()) ~hw ~traffic in
  let run jobs = S.Parallel.execute_replicated ~jobs ~runs:3 spec in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool)
    "replicated stats bit-identical at any jobs count" true
    (a.S.Netsim.throughput_mean = b.S.Netsim.throughput_mean
    && a.S.Netsim.latency_mean = b.S.Netsim.latency_mean
    && a.S.Netsim.loss_mean = b.S.Netsim.loss_mean)

(* ------------------------------------------------------------------ *)
(* Exports.                                                           *)

(* The streaming writer must emit the exact bytes of the tree path —
   on real snapshots from a run and on a synthetic one that exercises
   string escaping and non-finite numbers. *)
let streaming_serializer_byte_identical () =
  let checked = ref 0 in
  let check_snap snap =
    incr checked;
    Alcotest.(check string)
      "snapshot_to_string = to_string (snapshot_to_json)"
      (J.to_string (M.snapshot_to_json snap))
      (M.snapshot_to_string snap)
  in
  let metrics =
    {
      M.default_config with
      interval = 2e-4;
      slo = [ M.Slo.parse_exn "*.utilization>0.5" ];
      on_snapshot = Some check_snap;
    }
  in
  ignore
    (S.Netsim.run_single
       ~config:(S.Netsim.Config.with_metrics metrics base_config)
       (pipeline ()) ~hw ~traffic);
  Alcotest.(check bool) "checked real snapshots" true (!checked > 10);
  check_snap
    {
      M.s_seq = 42;
      s_time = 1.25e-3;
      s_interval = 2.5e-4;
      s_entities =
        [
          {
            M.e_name = "we\"ird\n\t entity \x01";
            e_samples =
              [
                ("c", M.Counter_s { total = 1e16; delta = -0. });
                ("g", M.Gauge_s { value = infinity });
                ("r", M.Rate_s { value = Float.nan; total = 0.1 });
                ( "h",
                  M.Hist_s
                    { count = 0; sum = 0.; p50 = 1e-7; p99 = neg_infinity } );
              ];
          };
          { M.e_name = ""; e_samples = [] };
        ];
      s_alerts =
        [
          {
            M.ev_rule = "a.b>1";
            ev_entity = "\\back\\slash";
            ev_firing = false;
            ev_value = 3.14159;
          };
        ];
    }

let openmetrics_export () =
  let t =
    M.create { M.default_config with slo = [ M.Slo.parse_exn "e.c>0" ] }
  in
  let c = ref 2. in
  M.register t ~entity:"e" ~name:"c" M.Counter (fun () -> !c);
  M.register t ~entity:"e" ~name:"depth" M.Gauge (fun () -> 7.);
  let h = M.histogram t ~entity:"e" ~name:"lat" ~bounds:[| 1.; 2. |] () in
  observe h 1.5;
  ignore (M.tick t ~now:1e-3);
  let om = M.to_openmetrics t in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "exposition contains %S" needle)
        true
        (contains_substring om needle))
    [ "lognic_c"; "lognic_depth"; "lognic_lat"; "entity=\"e\""; "# TYPE" ];
  let n = String.length om in
  Alcotest.(check bool) "terminated by # EOF" true
    (n >= 6 && String.sub om (n - 6) 6 = "# EOF\n")

let alerts_and_profile_json () =
  let t =
    M.create
      {
        M.default_config with
        profile = true;
        slo = [ M.Slo.parse_exn "e.c>0" ];
      }
  in
  let c = ref 1. in
  M.register t ~entity:"e" ~name:"c" M.Counter (fun () -> !c);
  ignore (M.tick t ~now:1e-3);
  c := 2.;
  ignore (M.tick t ~now:2e-3);
  (match M.profiler t with
  | None -> Alcotest.fail "profiler absent despite config.profile"
  | Some p ->
    Alcotest.(check int) "one profile row per tick" 2
      (List.length (S.Profile.rows p)));
  (match M.profile_to_json t with
  | None -> Alcotest.fail "profile_to_json absent"
  | Some json ->
    Alcotest.(check bool) "profile schema stamped" true
      (J.member "schema" json = Some (J.Str "profile")));
  let alerts = M.alerts_to_json t in
  Alcotest.(check bool) "alerts schema stamped" true
    (J.member "schema" alerts = Some (J.Str "alerts"));
  match J.of_string (J.to_string alerts) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "alerts JSON does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* The central Schema registry (every exporter stamps through it).    *)

let schema_registry () =
  Alcotest.(check bool) "registry is non-empty" true (S.Schema.table <> []);
  List.iter
    (fun (kind, v) ->
      Alcotest.(check bool) (kind ^ " has a positive version") true (v >= 1);
      Alcotest.(check int)
        (kind ^ " lookup agrees")
        v
        (S.Schema.version_of_exn kind))
    S.Schema.table;
  let names = S.Schema.kinds in
  Alcotest.(check int) "kinds covers the table"
    (List.length S.Schema.table)
    (List.length names);
  Alcotest.(check int) "twelve document kinds" 12 (List.length names);
  let uniq = List.sort_uniq compare names in
  Alcotest.(check int) "kinds are unique" (List.length names)
    (List.length uniq);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " registered") true (List.mem k names))
    [ "measurement"; "metrics"; "alerts"; "profile" ];
  Alcotest.(check (option int)) "unknown kind is None" None
    (S.Schema.version_of "no-such-schema");
  check_raises_invalid "version_of_exn raises on unknown kind" (fun () ->
      S.Schema.version_of_exn "no-such-schema")

(* Emitted documents carry the stamp the registry declares. *)
let documents_match_registry () =
  let t = M.create M.default_config in
  let snap = M.tick t ~now:1e-3 in
  let check_doc kind json =
    Alcotest.(check bool) (kind ^ " stamped") true
      (J.member "schema" json = Some (J.Str kind));
    Alcotest.(check bool)
      (kind ^ " version matches registry")
      true
      (J.member "schema_version" json
      = Some (J.Num (float_of_int (S.Schema.version_of_exn kind))))
  in
  check_doc "metrics" (M.snapshot_to_json snap);
  check_doc "alerts" (M.alerts_to_json t)

let bad_configs_rejected () =
  check_raises_invalid "non-positive interval" (fun () ->
      M.create { M.default_config with interval = 0. });
  let t = M.create M.default_config in
  check_raises_invalid "empty histogram bounds" (fun () ->
      M.histogram t ~entity:"e" ~name:"h" ~bounds:[||] ());
  check_raises_invalid "non-increasing bounds" (fun () ->
      M.histogram t ~entity:"e" ~name:"h" ~bounds:[| 1.; 1. |] ())

let suite =
  [
    quick "slo: grammar parses and round-trips" slo_parse_roundtrip;
    quick "histogram: buckets and quantiles" histogram_buckets_and_quantiles;
    quick "histogram: unrolled and fallback paths agree" histogram_paths_agree;
    quick "scalars: counter/gauge/rate deltas" scalar_samples;
    quick "alerts: hysteresis fires and resolves" hysteresis_fire_and_resolve;
    quick "alerts: rising rule" rising_rule_fires;
    quick "alerts: histogram p99 target" histogram_slo_target;
    slow "netsim: metrics on/off bit-identical" metrics_bit_identical;
    slow "netsim: jobs-invariant with metrics attached" metrics_jobs_invariant;
    slow "export: streaming serializer byte-identical"
      streaming_serializer_byte_identical;
    quick "export: openmetrics exposition" openmetrics_export;
    quick "export: alerts and profile JSON" alerts_and_profile_json;
    quick "schema: registry is consistent" schema_registry;
    quick "schema: documents match registry" documents_match_registry;
    quick "config: invalid inputs rejected" bad_configs_rejected;
  ]
