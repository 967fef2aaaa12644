(* Tests for the live metrics layer: SLO rule grammar, the histogram
   view of a telemetry table row, delta/rate arithmetic, alert
   hysteresis, the zero-perturbation guarantee under Netsim, gauge
   histories, the snapshot writer's JSON round trip, OpenMetrics
   output, the self-profiler, and the central Schema registry with one
   stamped document per registered kind. *)

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
  (* a tick evaluates a rule on exactly the instruments it matches:
     one alert state per matched (rule, entity) *)
  let evaluated rule instruments =
    let t = M.create { M.default_config with slo = [ rule ] } in
    List.iter
      (fun (entity, name) -> M.register t ~entity ~name M.Gauge (fun () -> 0.))
      instruments;
    ignore (M.tick t ~now:1e-3);
    List.map (fun (a : M.alert) -> a.a_entity) (M.alerts t)
  in
  Alcotest.(check (list string)) "wildcard matches, metric must match" [ "anything" ]
    (evaluated r [ ("anything", "utilization"); ("elsewhere", "other") ]);
  let pinned = M.Slo.parse_exn "cores.utilization>0.9" in
  Alcotest.(check (list string)) "pinned entity matches, rejects others" [ "cores" ]
    (evaluated pinned [ ("cores", "utilization"); ("memory", "utilization") ]);
  List.iter
    (fun bad ->
      match M.Slo.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ ""; "utilization"; ">0.9"; "m>abc"; "m^0"; "m^-1"; "m>1x0" ]

(* ------------------------------------------------------------------ *)
(* Histograms.                                                        *)

(* One delivery of latency [v] on row 0 of [tbl], recorded the way the
   simulator records one: from a flight's slot array. *)
let observe tbl v =
  let fs = Array.make S.Telemetry.flight_slots 0. in
  fs.(S.Telemetry.slot_now) <- v;
  S.Telemetry.Table.record_delivered tbl ~row:0 fs

let one_row () = S.Telemetry.Table.create ~rows:1 ~cutoff:0.

(* (count, sum, p50, p99) of one histogram after a tick *)
let hist_sample ?(now = 1e-3) t entity name =
  let snap = M.tick t ~now in
  let e = List.find (fun e -> e.M.e_name = entity) snap.M.s_entities in
  match List.assoc name e.M.e_samples with
  | M.Hist_s { count; sum; p50; p99 } -> (count, sum, p50, p99)
  | _ -> Alcotest.failf "%s.%s is not a histogram" entity name

let histogram_buckets_and_quantiles () =
  let t = M.create M.default_config in
  let tbl = one_row () in
  (* deliveries before registration are not the first interval's *)
  observe tbl 100.;
  M.histogram t ~entity:"e" ~name:"lat" tbl ~row:0;
  List.iter (observe tbl) [ 0.5; 1.5; 3.; 10. ];
  let count, sum, p50, p99 = hist_sample t "e" "lat" in
  Alcotest.(check int) "count" 4 count;
  check_close "sum" 15. sum;
  (* target ceil(0.5*4)=2 -> 1.5's bucket (1, 2] *)
  check_close "p50 bucket bound" 2. p50;
  (* target ceil(0.99*4)=4 -> 10's bucket (8, 16] *)
  check_close "p99 bucket bound" 16. p99;
  (* the next interval sees only its own deliveries; 1 = 2^0 closes
     the bucket (1/2, 1] *)
  List.iter (observe tbl) [ 1.; 1. ];
  let count, sum, p50, p99 = hist_sample ~now:2e-3 t "e" "lat" in
  Alcotest.(check int) "interval count" 2 count;
  check_close "interval sum" 2. sum;
  check_close "interval p50" 1. p50;
  check_close "interval p99" 1. p99;
  let count, _, p50, _ = hist_sample ~now:3e-3 t "e" "lat" in
  Alcotest.(check int) "empty interval" 0 count;
  check_close "empty interval p50" 0. p50

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
  let tbl = one_row () in
  M.histogram t ~entity:"e" ~name:"lat" tbl ~row:0;
  List.iter (observe tbl) [ 0.5; 0.5; 0.5; 10. ];
  match alert_events (M.tick t ~now:1.) with
  | [ ev ] ->
    Alcotest.(check string) "p99 rule fired" "e.lat_p99>3" ev.M.ev_rule;
    check_close "at the bucket bound" 16. ev.M.ev_value
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Netsim integration: zero perturbation, snapshot cadence.           *)

(* The shared pipeline with a 16-entry ip queue. *)
let pipeline = pipeline ~queue:16

let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500.

let base_config = S.Netsim.Config.(default |> with_horizon 5e-3)

let measurement_json config =
  J.to_string
    (S.Netsim.measurement_to_json
       (S.Netsim.run_single ~config (pipeline ()) ~hw ~traffic))

let metrics_bit_identical () =
  let snaps = ref 0 in
  (* every gauge sample the snapshots report, as ("ENTITY.NAME", (tick
     time, value)), newest first *)
  let gauges = ref [] in
  let on_snapshot snap =
    incr snaps;
    List.iter
      (fun e ->
        List.iter
          (fun (name, sample) ->
            match sample with
            | M.Gauge_s { value } ->
              gauges :=
                (e.M.e_name ^ "." ^ name, (snap.M.s_time, value)) :: !gauges
            | M.Counter_s _ | M.Rate_s _ | M.Hist_s _ -> ())
          e.M.e_samples)
      snap.M.s_entities
  in
  let metrics =
    {
      M.default_config with
      interval = 2e-4;
      slo = [ M.Slo.parse_exn "*.utilization>0.5" ];
      on_snapshot = Some on_snapshot;
    }
  in
  let bare = measurement_json base_config in
  let m =
    S.Netsim.run_single
      ~config:(S.Netsim.Config.with_metrics metrics base_config)
      (pipeline ()) ~hw ~traffic
  in
  Alcotest.(check string)
    "measurement JSON identical with metrics on/off" bare
    (J.to_string (S.Netsim.measurement_to_json m));
  (* 5 ms horizon / 200 µs interval, plus the final flush tick *)
  Alcotest.(check bool)
    (Printf.sprintf "snapshot cadence (%d snapshots)" !snaps)
    true
    (!snaps >= 25 && !snaps <= 27);
  (* One sampler: each gauge's history is exactly the samples its
     snapshots reported, and the histories come in registration order
     (per node queue_depth and busy_engines, then per medium
     backlog_bytes). *)
  let series =
    match m.S.Netsim.metrics with
    | Some metrics -> M.series metrics
    | None -> Alcotest.fail "metrics attached but absent"
  in
  Alcotest.(check (list string))
    "one history per gauge, in registration order"
    (List.concat_map
       (fun (v : S.Netsim.vertex_stats) ->
         [ v.vlabel ^ ".queue_depth"; v.vlabel ^ ".busy_engines" ])
       m.S.Netsim.vertex_stats
    @ List.map
        (fun (md : S.Netsim.medium_stats) -> md.mlabel ^ ".backlog_bytes")
        m.S.Netsim.medium_stats)
    (List.map S.Telemetry.Series.label series);
  let reported = List.rev !gauges in
  Alcotest.(check int) "every reported gauge sample is in a history"
    (List.length reported)
    (List.fold_left
       (fun acc s -> acc + Array.length (S.Telemetry.Series.to_array s))
       0 series);
  List.iter
    (fun s ->
      let label = S.Telemetry.Series.label s in
      Alcotest.(check (array (pair (float 0.) (float 0.))))
        (label ^ " history = its reported (time, value) samples")
        (Array.of_list
           (List.filter_map
              (fun (l, sample) -> if l = label then Some sample else None)
              reported))
        (S.Telemetry.Series.to_array s))
    series;
  (* One account: on a two-class run, run.latency's interval counts and
     sums add up to the summary's deliveries and latency total, and the
     class rows' deliveries add up to the run's. *)
  let count = ref 0 and sum = ref 0. in
  let on_snapshot snap =
    List.iter
      (fun e ->
        if e.M.e_name = "run" then
          match List.assoc "latency" e.M.e_samples with
          | M.Hist_s h ->
            count := !count + h.count;
            sum := !sum +. h.sum
          | _ -> Alcotest.fail "run.latency is not a histogram")
      snap.M.s_entities
  in
  let mix =
    [ (traffic, 0.7); (T.make ~rate:(1. *. U.gbps) ~packet_size:64., 0.3) ]
  in
  let m =
    S.Netsim.execute
      (S.Netsim.Run.make
         ~config:
           (S.Netsim.Config.with_metrics
              { metrics with on_snapshot = Some on_snapshot }
              base_config)
         (pipeline ()) ~hw ~mix)
  in
  let s = m.S.Netsim.summary in
  Alcotest.(check int) "latency counts sum to delivered"
    s.S.Telemetry.delivered_packets !count;
  let total =
    s.S.Telemetry.mean_latency *. float_of_int s.S.Telemetry.delivered_packets
  in
  Alcotest.(check bool)
    (Printf.sprintf "latency sums %.17g = total %.17g (1e-9 relative)" !sum
       total)
    true
    (total > 0. && Float.abs (!sum -. total) <= 1e-9 *. total);
  Alcotest.(check int) "both classes delivered" 2
    (List.length s.S.Telemetry.per_class);
  Alcotest.(check int) "class rows sum to the run's row"
    s.S.Telemetry.delivered_packets
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 s.S.Telemetry.per_class)

(* ------------------------------------------------------------------ *)
(* Exports.                                                           *)

(* The NDJSON sink appends [Json.to_string (snapshot_to_json s)], and
   every document parses back to the tree it was written from: on real
   snapshots from a run, and on a synthetic one whose strings need
   escaping (they survive exactly) and whose non-finite numbers read
   back as [null]. *)
let streaming_serializer_round_trip () =
  let json = Alcotest.testable (fun ppf j -> Fmt.string ppf (J.to_string j)) ( = ) in
  let rec nulled = function
    | J.Num x when not (Float.is_finite x) -> J.Null
    | J.Arr xs -> J.Arr (List.map nulled xs)
    | J.Obj kvs -> J.Obj (List.map (fun (k, v) -> (k, nulled v)) kvs)
    | v -> v
  in
  let checked = ref 0 in
  let round_trip snap =
    incr checked;
    let buf = Buffer.create 1024 in
    M.snapshot_to_buffer buf snap;
    match J.of_string (Buffer.contents buf) with
    | Ok parsed ->
      Alcotest.check json "snapshot parses back to its tree"
        (nulled (M.snapshot_to_json snap))
        parsed;
      parsed
    | Error e -> Alcotest.failf "snapshot %d does not parse: %s" snap.M.s_seq e
  in
  let metrics =
    {
      M.default_config with
      interval = 2e-4;
      slo = [ M.Slo.parse_exn "*.utilization>0.5" ];
      on_snapshot = Some (fun snap -> ignore (round_trip snap));
    }
  in
  ignore
    (S.Netsim.run_single
       ~config:(S.Netsim.Config.with_metrics metrics base_config)
       (pipeline ()) ~hw ~traffic);
  Alcotest.(check bool) "checked real snapshots" true (!checked > 10);
  let weird = "we\"ird\n\t entity \x01" and back = "\\back\\slash" in
  let parsed =
    round_trip
      {
        M.s_seq = 42;
        s_time = 1.25e-3;
        s_interval = 2.5e-4;
        s_entities =
          [
            {
              M.e_name = weird;
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
              ev_entity = back;
              ev_firing = false;
              ev_value = 3.14159;
            };
          ];
      }
  in
  let field path =
    List.fold_left
      (fun j key ->
        match (j, int_of_string_opt key) with
        | Some (J.Arr xs), Some i -> List.nth_opt xs i
        | Some j, _ -> J.member key j
        | None, _ -> None)
      (Some parsed) path
  in
  Alcotest.(check (option json)) "escaped entity name survives exactly"
    (Some (J.Str weird)) (field [ "entities"; "0"; "entity" ]);
  Alcotest.(check (option json)) "alert entity survives exactly"
    (Some (J.Str back)) (field [ "alerts"; "0"; "entity" ]);
  List.iter
    (fun (i, key) ->
      Alcotest.(check (option json)) "non-finite number reads back as null"
        (Some J.Null)
        (field [ "entities"; "0"; "metrics"; i; key ]))
    [ ("1", "value"); ("2", "value"); ("3", "p99") ]

let openmetrics_export () =
  let t =
    M.create { M.default_config with slo = [ M.Slo.parse_exn "e.c>0" ] }
  in
  let c = ref 2. in
  M.register t ~entity:"e" ~name:"c" M.Counter (fun () -> !c);
  M.register t ~entity:"e" ~name:"depth" M.Gauge (fun () -> 7.);
  let tbl = one_row () in
  M.histogram t ~entity:"e" ~name:"lat" tbl ~row:0;
  let edge = Float.ldexp 1. (-10) in
  List.iter (observe tbl) [ edge; 1.5; 1e9 ];
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
    (n >= 6 && String.sub om (n - 6) 6 = "# EOF\n");
  (* (le, cumulative count) per bucket line, and the count line *)
  let lines = String.split_on_char '\n' om in
  let buckets =
    List.filter_map
      (fun l ->
        Scanf.sscanf_opt l "lognic_lat_bucket{entity=\"e\",le=%S} %d"
          (fun le n ->
            ((if le = "+Inf" then infinity else float_of_string le), n)))
      lines
  in
  let count =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "lognic_lat_count{entity=\"e\"} %d" Fun.id)
      lines
  in
  Alcotest.(check int) "one line per log2 bucket" S.Telemetry.Table.buckets
    (List.length buckets);
  ignore
    (List.fold_left
       (fun (prev_le, prev_n) (le, n) ->
         Alcotest.(check bool)
           (Printf.sprintf "le %g > %g and cumulative %d >= %d" le prev_le n
              prev_n)
           true
           (le > prev_le && n >= prev_n);
         (le, n))
       (neg_infinity, 0) buckets);
  Alcotest.(check (option int)) "+Inf bucket = _count"
    (Some (List.assoc infinity buckets))
    count;
  Alcotest.(check (option int)) "2^-10 counted at le = 2^-10" (Some 1)
    (List.assoc_opt edge buckets);
  Alcotest.(check (option int)) "and not below it" (Some 0)
    (List.assoc_opt (edge /. 2.) buckets)

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
      (List.length (json_arr (S.Profile.to_json p) [ "intervals" ])));
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
  let names = List.map fst S.Schema.table in
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
  check_raises_invalid "version_of_exn raises on unknown kind" (fun () ->
      S.Schema.version_of_exn "no-such-schema")

(* Emitted documents carry the stamp the registry declares: one row per
   registered kind, each building a small document through its real
   exporter. [check] is built by the CLI alone and keeps its own
   validator. *)
let documents_match_registry () =
  let config = S.Netsim.Config.(default |> with_horizon 1e-3) in
  let g = pipeline () in
  let mix = [ (traffic, 1.) ] in
  let run config = S.Netsim.run_single ~config g ~hw ~traffic in
  let t = M.create { M.default_config with profile = true } in
  let snap = M.tick t ~now:1e-3 in
  let rows =
    [
      ("measurement", fun () -> S.Netsim.measurement_to_json (run config));
      ("explain", fun () -> S.Explain.to_json (S.Explain.run ~config g ~hw ~mix));
      ("search_log", fun () -> S.Search_log.to_json (S.Search_log.create ()));
      ( "trace_events",
        fun () ->
          let m =
            run (S.Netsim.Config.with_trace { S.Trace.reservoir = 4 } config)
          in
          (* the stamp rides in the trace's otherData *)
          Option.value ~default:J.Null
            (J.member "otherData"
               (S.Trace.to_chrome_json (Option.get m.S.Netsim.trace))) );
      ( "contention",
        fun () -> S.Contention.to_json (S.Contention.run ~config g ~hw ~mix) );
      ( "faults",
        fun () ->
          S.Resilience.to_json
            (S.Resilience.run ~config g ~hw ~traffic
               ~plan:
                 [
                   S.Faults.engine_down ~vertex:"ip" ~engines:1 ~start:2e-4
                     ~stop:5e-4;
                 ]) );
      ("metrics", fun () -> M.snapshot_to_json snap);
      ("alerts", fun () -> M.alerts_to_json t);
      ("profile", fun () -> Option.get (M.profile_to_json t));
      ( "tenants",
        fun () ->
          S.Explain.tenants_to_json
            (S.Explain.run_tenants ~config g ~hw ~traffic
               ~tenants:(S.Tenant.set [ S.Tenant.spec "a"; S.Tenant.spec "b" ])) );
      ( "flowcache",
        fun () ->
          let app = Lognic_apps.Flow_cache.default in
          S.Explain.flowcache_to_json
            (S.Explain.run_flowcache ~config
               (Lognic.Flowcache.spec ~emc_entries:64 ~megaflow_entries:256
                  ~flows:1024 ())
               (Lognic_apps.Flow_cache.graph app)
               ~hw:Lognic_apps.Flow_cache.hardware
               ~traffic:(Lognic_apps.Flow_cache.traffic app)) );
    ]
  in
  Alcotest.(check (list string))
    "one row per registered kind but check"
    (List.sort compare (List.filter (( <> ) "check") (List.map fst S.Schema.table)))
    (List.sort compare (List.map fst rows));
  List.iter
    (fun (kind, document) ->
      let json = document () in
      Alcotest.(check bool) (kind ^ " stamped") true
        (J.member "schema" json = Some (J.Str kind));
      Alcotest.(check bool)
        (kind ^ " version matches registry")
        true
        (J.member "schema_version" json
        = Some (J.Num (float_of_int (S.Schema.version_of_exn kind)))))
    rows

let bad_configs_rejected () =
  List.iter
    (fun interval ->
      check_raises_invalid "non-positive or non-finite interval" (fun () ->
          M.create { M.default_config with interval }))
    [ 0.; Float.nan; Float.infinity ];
  let t = M.create M.default_config in
  List.iter
    (fun row ->
      check_raises_invalid "histogram row outside the table" (fun () ->
          M.histogram t ~entity:"e" ~name:"h" (one_row ()) ~row))
    [ -1; 1 ]

let suite =
  [
    quick "slo: grammar parses and round-trips" slo_parse_roundtrip;
    quick "histogram: buckets and quantiles" histogram_buckets_and_quantiles;
    quick "scalars: counter/gauge/rate deltas" scalar_samples;
    quick "alerts: hysteresis fires and resolves" hysteresis_fire_and_resolve;
    quick "alerts: rising rule" rising_rule_fires;
    quick "alerts: histogram p99 target" histogram_slo_target;
    slow "netsim: metrics on/off bit-identical" metrics_bit_identical;
    slow "export: streaming serializer round-trips"
      streaming_serializer_round_trip;
    quick "export: openmetrics exposition" openmetrics_export;
    quick "export: alerts and profile JSON" alerts_and_profile_json;
    quick "schema: registry is consistent" schema_registry;
    quick "schema: documents match registry" documents_match_registry;
    quick "config: invalid inputs rejected" bad_configs_rejected;
  ]
