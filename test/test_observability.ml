(* Tests for the observability layer: packet-lifecycle tracing
   (reservoir sampling, span exactness, Chrome export), the model-vs-sim
   explain engine, and optimizer search telemetry. Tracing's
   zero-perturbation and --jobs guarantees are rows of [lognic check]'s
   layer table. *)

open Helpers
module S = Lognic_sim
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic

(* The shared pipeline with a per-vertex overhead on the ip, so traces
   exercise all four span phases (queue, service, wire, overhead). *)
let pipeline = pipeline ~overhead:1e-7

let untraced_config = S.Netsim.Config.(default |> with_horizon 0.02)

let traced_config =
  S.Netsim.Config.with_trace { S.Trace.reservoir = 32 } untraced_config

let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500.

(* Tentpole invariant: a packet's spans tile [born, delivered] — the
   recorded spans are chronological, contiguous, and their durations
   sum exactly to the recorded end-to-end latency. *)
let spans_sum_to_latency () =
  let m = S.Netsim.run_single ~config:traced_config (pipeline ()) ~hw ~traffic in
  let trace = Option.get m.S.Netsim.trace in
  let delivered =
    List.filter
      (fun (r : S.Trace.record) ->
        match r.fate with S.Trace.Delivered _ -> true | _ -> false)
      (S.Trace.records trace)
  in
  Alcotest.(check bool) "sampled delivered packets" true (List.length delivered > 0);
  List.iter
    (fun (r : S.Trace.record) ->
      let path = List.rev r.rev_spans in
      let latency =
        match r.fate with S.Trace.Delivered at -> at -. r.born | _ -> assert false
      in
      check_close
        (Printf.sprintf "packet %d span sum = latency" r.packet)
        latency
        (List.fold_left (fun acc (s : S.Trace.span) -> acc +. s.duration) 0. path);
      Alcotest.(check bool) "has spans" true (path <> []);
      (* chronological and contiguous from birth to delivery *)
      let end_time =
        List.fold_left
          (fun cursor (s : S.Trace.span) ->
            check_close "contiguous span" cursor s.start;
            s.start +. s.duration)
          r.born path
      in
      (match r.fate with
      | S.Trace.Delivered at -> check_close "ends at delivery" at end_time
      | _ -> assert false);
      Alcotest.(check bool)
        "durations positive" true
        (List.for_all (fun (s : S.Trace.span) -> s.duration > 0.) path))
    delivered

let reservoir_deterministic () =
  let ids m =
    List.map
      (fun (r : S.Trace.record) -> r.packet)
      (S.Trace.records (Option.get m.S.Netsim.trace))
  in
  let run () = S.Netsim.run_single ~config:traced_config (pipeline ()) ~hw ~traffic in
  Alcotest.(check (list int)) "same seed, same reservoir" (ids (run ())) (ids (run ()));
  let other =
    S.Netsim.run_single
      ~config:(S.Netsim.Config.with_seed 7 traced_config)
      (pipeline ()) ~hw ~traffic
  in
  Alcotest.(check bool)
    "different seed, different reservoir" true
    (ids (run ()) <> ids other)

let chrome_json_roundtrip () =
  let m = S.Netsim.run_single ~config:traced_config (pipeline ()) ~hw ~traffic in
  let trace = Option.get m.S.Netsim.trace in
  let text = S.Trace.to_chrome_string trace in
  match S.Telemetry.Json.of_string text with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok json ->
    Alcotest.(check string)
      "round-trips exactly" text
      (S.Telemetry.Json.to_string json);
    (match S.Telemetry.Json.member "traceEvents" json with
    | Some (S.Telemetry.Json.Arr events) ->
      Alcotest.(check bool) "has events" true (List.length events > 0)
    | _ -> Alcotest.fail "missing traceEvents array")

(* Acceptance: explain names the same bottleneck as the analytic
   roofline, on a compute-bound and on an interface-bound graph. *)
let explain_config = untraced_config

let explain_agrees_when_vertex_bound () =
  let g = pipeline ~ip_rate:(2. *. U.gbps) () in
  let r = S.Explain.run ~config:explain_config g ~hw ~mix:[ (traffic, 1.) ] in
  Alcotest.(check string) "model names ip" "ip" r.S.Explain.model_bottleneck;
  Alcotest.(check string) "sim names ip" "ip" r.S.Explain.sim_bottleneck;
  Alcotest.(check bool) "agree" true r.S.Explain.agree

let explain_agrees_when_interface_bound () =
  (* alpha=3 on both hops: sum-alpha 6 puts the interface cap at
     ~8.3 Gbps, far below the 20 Gbps IP. *)
  let g = pipeline ~ip_rate:(20. *. U.gbps) ~alpha:3. () in
  let traffic = T.make ~rate:(12. *. U.gbps) ~packet_size:1500. in
  let r = S.Explain.run ~config:explain_config g ~hw ~mix:[ (traffic, 1.) ] in
  Alcotest.(check string)
    "model names interface" "interface" r.S.Explain.model_bottleneck;
  Alcotest.(check string)
    "sim names interface" "interface" r.S.Explain.sim_bottleneck;
  Alcotest.(check bool) "agree" true r.S.Explain.agree

let explain_rows_ranked_and_joined () =
  let g = pipeline ~ip_rate:(2. *. U.gbps) () in
  let r = S.Explain.run ~config:explain_config g ~hw ~mix:[ (traffic, 1.) ] in
  let utils = List.map (fun (e : S.Explain.entity_row) -> e.sim_utilization) r.rows in
  Alcotest.(check bool)
    "ranked by sim utilization" true
    (List.sort (fun a b -> Float.compare b a) utils = utils);
  let ip = List.find (fun (e : S.Explain.entity_row) -> e.name = "ip") r.rows in
  Alcotest.(check bool) "vertex rows carry queue join" true
    (ip.model_queue_depth <> None && ip.sim_queue_depth <> None);
  (* saturated vertex: both sides see utilization ~1 *)
  check_within ~pct:5. "model util" 1. ip.model_utilization;
  check_within ~pct:5. "sim util" 1. ip.sim_utilization;
  match
    S.Telemetry.Json.of_string (S.Telemetry.Json.to_string (S.Explain.to_json r))
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "explain JSON does not parse: %s" e

(* The join's relative error: symmetric in scale, 0 when both sides are
   0, and 1 (never NaN) when the model predicts an unbounded latency, as
   M/M/1 does past ρ = 1. *)
let explain_relative_error () =
  let e = S.Explain.relative_error in
  check_close "10% of the larger side" 0.1 (e ~model:90. ~sim:100.);
  check_close "both zero" 0. (e ~model:0. ~sim:0.);
  check_close "infinite model" 1. (e ~model:infinity ~sim:2.5e-4)

(* Optimizer search telemetry: the observer sees every evaluation,
   and the search log's fold matches the solution's own stats. *)
let search_log_matches_stats () =
  let g = pipeline ~ip_rate:(2. *. U.gbps) () in
  let _, w, _ =
    match G.vertices g with
    | [ a; b; c ] -> (a.G.id, b.G.id, c.G.id)
    | _ -> assert false
  in
  let log = S.Search_log.create () in
  let solution =
    Lognic.Optimizer.optimize ~observer:(S.Search_log.observer log) g ~hw
      ~traffic
      ~knobs:
        [
          Lognic.Optimizer.Queue_capacity (w, 4, 16);
          Lognic.Optimizer.Accel (w, [| 1.; 2.; 4. |]);
        ]
      Lognic.Optimizer.Maximize_throughput
  in
  let json = json_reparse (S.Search_log.to_json log) in
  Alcotest.(check int)
    "observer saw every evaluation"
    solution.stats.Lognic.Optimizer.evaluations
    (int_of_float (json_num json [ "evaluations" ]));
  Alcotest.(check int)
    "observer saw every memo hit" solution.stats.Lognic.Optimizer.memo_hits
    (int_of_float (json_num json [ "cache_hits" ]));
  Alcotest.(check bool) "best score is a real score" true
    (Float.is_finite (json_num json [ "best"; "score" ]));
  let histogram = json_get json [ "knob_histogram" ] in
  Alcotest.(check bool)
    "histogram covers both knobs" true
    (S.Telemetry.Json.member (Printf.sprintf "queue_capacity:%d" w) histogram <> None
    && S.Telemetry.Json.member (Printf.sprintf "accel:%d" w) histogram <> None);
  Alcotest.(check bool)
    "best_curve present" true
    (S.Telemetry.Json.member "best_curve" json <> None)

(* Series overload behaviour: the ring buffer is bounded, keeps the
   newest samples in order, and its CSV export stays well-formed after
   wrapping. The storage starts at 16 samples and doubles up to the
   4096-sample ring before it wraps, once or several times. *)
let series_wraparound () =
  let capacity = 4096 in
  let check_wrap ~adds =
    let s = S.Telemetry.Series.create ~label:"depth" ~interval:1. () in
    for i = 0 to adds - 1 do
      S.Telemetry.Series.add s ~time:(float_of_int i)
        ~value:(float_of_int (i * i))
    done;
    let what = Printf.sprintf "%d adds: " adds in
    let a = S.Telemetry.Series.to_array s in
    Alcotest.(check int) (what ^ "length clamps at capacity") capacity (Array.length a);
    let first = adds - capacity in
    Array.iteri
      (fun i (time, value) ->
        (* the newest [capacity] samples, chronological *)
        check_close (what ^ "wrapped time") (float_of_int (i + first)) time;
        check_close (what ^ "wrapped value")
          (float_of_int ((i + first) * (i + first)))
          value)
      a
  in
  check_wrap ~adds:(capacity + 12);
  check_wrap ~adds:((3 * capacity) + 5)

let series_csv_after_wrap () =
  let s = S.Telemetry.Series.create ~label:"q" ~interval:1. () in
  let capacity = 4096 in
  for i = 0 to capacity + 5 do
    S.Telemetry.Series.add s ~time:(float_of_int i) ~value:(float_of_int i)
  done;
  let csv = S.Telemetry.Series.to_csv s in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (match lines with
  | header :: rows ->
    Alcotest.(check string) "header names the label" "time,q" header;
    Alcotest.(check int) "one row per retained sample" capacity
      (List.length rows);
    Alcotest.(check string) "first retained row is the oldest survivor"
      "6,6" (List.hd rows)
  | [] -> Alcotest.fail "empty CSV")

(* Degenerate sample intervals: 0 / negative are programming errors;
   an interval longer than the horizon must still yield one final
   sample at the horizon — an empty series would make
   `lognic report --csv` emit a header-only file. *)
let series_degenerate_intervals () =
  let run interval =
    let config =
      S.Netsim.Config.(
        default |> with_horizon 0.02
        |> with_metrics { S.Metrics.default_config with interval })
    in
    S.Netsim.run_single ~config (pipeline ()) ~hw ~traffic
  in
  check_raises_invalid "zero interval" (fun () -> ignore (run 0.));
  check_raises_invalid "negative interval" (fun () -> ignore (run (-1e-3)));
  let check_single_final_sample name m =
    let series =
      Option.fold ~none:[] ~some:S.Metrics.series m.S.Netsim.metrics
    in
    Alcotest.(check bool) (name ^ ": run produced series") true (series <> []);
    List.iter
      (fun s ->
        Alcotest.(check int)
          (Printf.sprintf "%s: series %S has exactly one sample" name
             (S.Telemetry.Series.label s))
          1
          (Array.length (S.Telemetry.Series.to_array s));
        let time, _ = (S.Telemetry.Series.to_array s).(0) in
        check_close (name ^ ": final sample sits at the horizon") 0.02 time)
      series
  in
  (* interval beyond the horizon: the one-shot fallback fires *)
  check_single_final_sample "oversized" (run 1.0);
  (* interval exactly the horizon: the regular grid lands one sample
     at t = horizon and must not double up with the fallback *)
  check_single_final_sample "exact horizon" (run 0.02)

(* Read-only probes under overload: a run that drops packets (full
   queues, saturated media) re-measured with a metrics registry whose
   callback aggressively reads cumulative state mid-run must still
   produce byte-identical measurement JSON. *)
let probes_read_only_under_overload () =
  let g = pipeline ~queue:4 ~ip_rate:(1. *. U.gbps) () in
  let traffic = T.make ~rate:(8. *. U.gbps) ~packet_size:1500. in
  let overload = untraced_config in
  let dump config =
    S.Telemetry.Json.to_string
      (S.Netsim.measurement_to_json
         (S.Netsim.run_single ~config g ~hw ~traffic))
  in
  let reads = ref 0 in
  let metrics =
    {
      S.Metrics.default_config with
      interval = 5e-4;
      slo = [ S.Metrics.Slo.parse_exn "*.utilization>0.5" ];
      on_snapshot =
        Some
          (fun snap ->
            (* exercise every read-only export mid-run *)
            incr reads;
            ignore
              (S.Telemetry.Json.to_string (S.Metrics.snapshot_to_json snap)));
    }
  in
  let bare = dump overload in
  let probed = dump (S.Netsim.Config.with_metrics metrics overload) in
  (match S.Telemetry.Json.of_string bare with
  | Ok json -> (
    match
      Option.bind
        (S.Telemetry.Json.member "summary" json)
        (S.Telemetry.Json.member "dropped_packets")
    with
    | Some (S.Telemetry.Json.Num n) ->
      Alcotest.(check bool) "overload run drops packets" true (n > 0.)
    | _ -> Alcotest.fail "no summary.dropped_packets in measurement JSON")
  | Error e -> Alcotest.failf "measurement JSON does not parse: %s" e);
  Alcotest.(check bool) "callback ran" true (!reads > 10);
  Alcotest.(check string)
    "measurement JSON identical with probes reading mid-run" bare probed

let suite =
  [
    slow "trace: spans sum to latency" spans_sum_to_latency;
    slow "trace: reservoir deterministic" reservoir_deterministic;
    slow "trace: chrome JSON round-trips" chrome_json_roundtrip;
    slow "explain: agrees on vertex-bound graph" explain_agrees_when_vertex_bound;
    slow "explain: agrees on interface-bound graph"
      explain_agrees_when_interface_bound;
    slow "explain: rows ranked and joined" explain_rows_ranked_and_joined;
    quick "explain: relative error" explain_relative_error;
    quick "series: ring buffer wraparound" series_wraparound;
    quick "series: CSV after wrap" series_csv_after_wrap;
    quick "series: degenerate sample intervals" series_degenerate_intervals;
    slow "metrics: probes read-only under overload"
      probes_read_only_under_overload;
    quick "search log: matches optimizer stats" search_log_matches_stats;
  ]
