(* Golden byte-identity scenarios for the simulator.

   Each scenario is a fully pinned [Netsim.Run.t] — fixed seed, fixed
   duration, fixed traffic — whose measurement JSON is captured once
   (test/golden/gen.exe writes the fixtures) and asserted byte-equal on
   every test run.  They pin the exact (time, seq) pop order, rng
   stream layout and float operation order across rewrites of the
   event queue and the engine: any change to pop order, draw order or
   summation order shows up as a one-byte diff.

   The set deliberately crosses the feature matrix: arrival processes
   (Poisson / Paced / Bursty), service distributions, multi-class
   mixes, overload (queue and buffer drops), a fault plan (extra rng
   stream + per-packet bin accounting), and the same faulted run with
   every observation-only layer switched on.

   [table] is the whole set, one [(name, fixture, ext, render)] row per
   test: [render ()] produces the bytes compared against
   [fixture ^ ext]. A row whose fixture is another row's name re-checks
   that fixture under a different configuration. *)

module Sim = Lognic_sim
module D = Lognic_devices
module T = Lognic.Traffic
module U = Lognic.Units

let config ?(seed = 7) ?(duration = 2e-3)
    ?(service_dist = Sim.Ip_node.Exponential)
    ?(arrival = Sim.Traffic_gen.Poisson) () =
  Sim.Netsim.Config.(
    default |> with_seed seed |> with_horizon duration
    |> with_service_dist service_dist
    |> with_arrival arrival)

let md5_graph () =
  D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5 ~packet_size:U.mtu ()

let md5_traffic = T.make ~rate:D.Liquidio.line_rate ~packet_size:U.mtu

let nvme_graph () = D.Stingray.nvme_of_graph ~io:D.Ssd.rrd_4k ()

let nvme_mix =
  [
    (T.make ~rate:1.2e9 ~packet_size:(4. *. U.kib), 0.7);
    (T.make ~rate:3e8 ~packet_size:512., 0.3);
  ]

let md5_faults_plan =
  [
    Sim.Faults.engine_down ~vertex:"ip2.MD5" ~engines:1 ~start:5e-4 ~stop:1e-3;
    Sim.Faults.medium_degraded
      ~medium:(Lognic.Params.medium_name Interface)
      ~factor:0.5 ~start:4e-4 ~stop:8e-4;
    Sim.Faults.drop_burst ~probability:0.25 ~start:1e-3 ~stop:1.4e-3;
  ]

let measurement_runs () =
  [
    ( "md5-poisson-exp",
      Sim.Netsim.Run.single ~config:(config ()) (md5_graph ())
        ~hw:D.Liquidio.hardware ~traffic:md5_traffic );
    ( "md5-paced-det-sampled",
      Sim.Netsim.Run.single
        ~config:
          (config ~seed:3 ~service_dist:Sim.Ip_node.Deterministic
             ~arrival:Sim.Traffic_gen.Paced ())
        (md5_graph ()) ~hw:D.Liquidio.hardware ~traffic:md5_traffic );
    ( "md5-bursty-overload",
      Sim.Netsim.Run.single
        ~config:
          (config ~seed:5
             ~arrival:(Sim.Traffic_gen.Bursty { burstiness = 4.; mean_on = 2e-4 })
             ())
        (md5_graph ()) ~hw:D.Liquidio.hardware
        ~traffic:(T.make ~rate:(2. *. D.Liquidio.line_rate) ~packet_size:U.mtu) );
    ( "nvme-mix",
      Sim.Netsim.Run.make
        ~config:(config ~seed:11 ())
        (nvme_graph ()) ~hw:D.Stingray.hardware ~mix:nvme_mix );
    ( "md5-faults",
      Sim.Netsim.Run.single ~config:(config ~seed:9 ()) ~faults:md5_faults_plan
        (md5_graph ()) ~hw:D.Liquidio.hardware ~traffic:md5_traffic );
  ]

let measurement_string run =
  Sim.Telemetry.Json.to_string
    (Sim.Netsim.measurement_to_json (Sim.Netsim.execute run))

(* The md5-faults run with invariants, streaming metrics, a 64-packet
   trace and a single tenant all on. Each layer only observes (the
   trace rng splits last, a lone tenant keeps the untenanted scheduler),
   so its measurement JSON must equal the md5-faults fixture byte for
   byte. *)
let md5_faults_all_layers () =
  let metrics =
    {
      Sim.Metrics.default_config with
      interval = 1e-4;
      on_snapshot =
        Some
          (fun snap ->
            ignore (Sim.Telemetry.Json.to_string (Sim.Metrics.snapshot_to_json snap)));
    }
  in
  Sim.Netsim.Run.single
    ~config:
      Sim.Netsim.Config.(
        config ~seed:9 () |> with_invariants true |> with_metrics metrics
        |> with_trace { Sim.Trace.reservoir = 64 }
        |> with_tenants (Sim.Tenant.set [ Sim.Tenant.spec "solo" ]))
    ~faults:md5_faults_plan (md5_graph ()) ~hw:D.Liquidio.hardware
    ~traffic:md5_traffic

(* Pinned metrics stream: a fixed-seed run with the live registry
   ticking every 100 µs and an SLO rule that fires and resolves inside
   the window, captured as the concatenated NDJSON the [on_snapshot]
   sink emits.  The fixture pins the instrument catalog, sampling
   order, delta/rate arithmetic, alert transitions and the snapshot
   writer's byte output in one comparison. *)
let metrics_stream () =
  let buf = Buffer.create 65536 in
  let metrics =
    {
      Sim.Metrics.default_config with
      interval = 1e-4;
      slo =
        [
          Sim.Metrics.Slo.parse_exn "*.utilization>0.5x2";
          Sim.Metrics.Slo.parse_exn "run.dropped>0";
        ];
      on_snapshot =
        Some
          (fun snap ->
            Sim.Metrics.snapshot_to_buffer buf snap;
            Buffer.add_char buf '\n');
    }
  in
  let config = Sim.Netsim.Config.with_metrics metrics (config ~seed:21 ()) in
  ignore
    (Sim.Netsim.run_single ~config (md5_graph ()) ~hw:D.Liquidio.hardware
       ~traffic:md5_traffic);
  Buffer.contents buf

(* Pinned multi-tenant run: 16 VFs — three differentiated tenants
   (weights, skewed shares, SLOs) plus a uniform background population —
   under moderate md5-workload load, captured as the versioned
   [kind:"tenants"] report JSON.  One fixture pins the hierarchical
   two-stage arbiter's grant order, the tenant rng stream layout, the
   per-VF attribution windowing, the fairness indices and the
   per-tenant analytic decomposition in a single byte comparison. *)
let tenants_md5_16vf () =
  let tenants =
    Sim.Tenant.set
      (Sim.Tenant.spec ~weight:8 ~share:4. ~slo_p99:1e-3 "gold"
      :: Sim.Tenant.spec ~weight:4 ~share:2. ~slo_p99:5e-3 "silver"
      :: Sim.Tenant.spec ~weight:2 "bronze"
      :: List.init 13 (fun i -> Sim.Tenant.spec (Printf.sprintf "vf%02d" i)))
  in
  let report =
    Sim.Explain.run_tenants
      ~config:(config ~seed:13 ())
      (md5_graph ()) ~hw:D.Liquidio.hardware
      ~traffic:(T.make ~rate:(D.Liquidio.line_rate /. 2.) ~packet_size:U.mtu)
      ~tenants
  in
  Sim.Telemetry.Json.to_string (Sim.Explain.tenants_to_json report)

(* Pinned flow-cache run: an OVS-style EMC → megaflow → slow-path
   datapath over a 4096-flow Zipf(1.1) population with tables small
   enough (256/1024 entries) to reach cache steady state inside the
   window, captured as the versioned [kind:"flowcache"] report JSON.
   One fixture pins the alias-method flow sampler, the fixed-capacity
   LRU eviction order, the flow rng stream layout, the per-class
   latency histograms and the model's fixed-point join in a single
   byte comparison. *)
let flowcache_zipf () =
  let spec =
    Lognic.Flowcache.spec ~zipf:1.1 ~emc_entries:256 ~megaflow_entries:1024
      ~flows:4096 ()
  in
  let app = Lognic_apps.Flow_cache.default in
  let report =
    Sim.Explain.run_flowcache
      ~config:(config ~seed:17 ~duration:5e-3 ())
      spec
      (Lognic_apps.Flow_cache.graph app)
      ~hw:Lognic_apps.Flow_cache.hardware
      ~traffic:(Lognic_apps.Flow_cache.traffic app)
  in
  Sim.Telemetry.Json.to_string (Sim.Explain.flowcache_to_json report)

(* Contended two-class workload, pinned end to end: the joint
   multi-class model with the multi-resource interference layer against
   a fixed-seed simulation, captured as the full contention-report JSON
   (per-class residuals, slowdowns, resource ceilings, ranked
   interference).  One fixture pins the model math and the report
   serialization together. *)
let contended_two_class () =
  let mix =
    [
      (T.make ~rate:(D.Liquidio.line_rate /. 2.) ~packet_size:U.mtu, 0.6);
      (T.make ~rate:(D.Liquidio.line_rate /. 4.) ~packet_size:512., 0.4);
    ]
  in
  let contention =
    Lognic.Extensions.contention
      ~demands:[ [ ("l2-fill", 1.) ]; [ ("l2-fill", 1.); ("dram", 0.5) ] ]
      ~interference:[| [| 0.; 0.6 |]; [| 0.3; 0. |] |]
  in
  let report =
    Sim.Contention.run
      ~config:(config ~seed:13 ())
      ~contention (md5_graph ()) ~hw:D.Liquidio.hardware ~mix
  in
  Sim.Telemetry.Json.to_string (Sim.Contention.to_json report)

(* Pinned explain joins, captured as the versioned [kind:"explain"]
   report JSON: the md5-poisson-exp run as a one-class mix (no
   [classes] array) and the nvme-mix run's two classes (per-class
   rows). The fixtures were written by the separate single-traffic and
   mix entry points that [Explain.run] replaced, so the one-class
   fixture holds that the one-class mix reproduces the single-traffic
   report byte for byte. *)
let explain ~config g ~hw ~mix () =
  Sim.Telemetry.Json.to_string
    (Sim.Explain.to_json (Sim.Explain.run ~config g ~hw ~mix))

(* Pinned faults join: the md5-faults run (seed 9) joined per fault
   interval against {!Lognic.Degraded}, captured as the versioned
   [kind:"faults"] report JSON. One fixture pins the interval
   aggregation, the per-interval model/sim rows and the recovery
   summary. *)
let faults_md5 () =
  Sim.Telemetry.Json.to_string
    (Sim.Resilience.to_json
       (Sim.Resilience.run ~config:(config ~seed:9 ()) (md5_graph ())
          ~hw:D.Liquidio.hardware ~traffic:md5_traffic ~plan:md5_faults_plan))

(* Pinned packet-lifecycle trace: the md5-faults run with four weighted
   tenants (so every node runs the hierarchical arbiter) and a 16-packet
   reservoir, captured as the Chrome trace-event JSON. One fixture pins
   which packets the reservoir keeps, every span's entity, lane, start
   and duration, and each packet's delivery or drop site. *)
let trace_md5_faults () =
  let tenants =
    Sim.Tenant.set
      [
        Sim.Tenant.spec ~weight:4 ~share:2. "gold";
        Sim.Tenant.spec ~weight:2 "silver";
        Sim.Tenant.spec "bronze";
        Sim.Tenant.spec "best-effort";
      ]
  in
  let run =
    Sim.Netsim.Run.single
      ~config:
        Sim.Netsim.Config.(
          config ~seed:9 ()
          |> with_trace { Sim.Trace.reservoir = 16 }
          |> with_tenants tenants)
      ~faults:md5_faults_plan (md5_graph ()) ~hw:D.Liquidio.hardware
      ~traffic:md5_traffic
  in
  match (Sim.Netsim.execute run).trace with
  | Some t -> Sim.Trace.to_chrome_string t
  | None -> invalid_arg "Golden.trace_md5_faults: the run kept no trace"

let table () =
  List.map
    (fun (name, run) -> (name, name, ".json", fun () -> measurement_string run))
    (measurement_runs ())
  @ [
      ("contended-two-class", "contended-two-class", ".json", contended_two_class);
      ("tenants-md5-16vf", "tenants-md5-16vf", ".json", tenants_md5_16vf);
      ("flowcache-zipf", "flowcache-zipf", ".json", flowcache_zipf);
      ( "explain-md5",
        "explain-md5",
        ".json",
        explain ~config:(config ()) (md5_graph ()) ~hw:D.Liquidio.hardware
          ~mix:[ (md5_traffic, 1.) ] );
      ( "explain-nvme-mix",
        "explain-nvme-mix",
        ".json",
        explain ~config:(config ~seed:11 ()) (nvme_graph ())
          ~hw:D.Stingray.hardware ~mix:nvme_mix );
      ("metrics-stream", "metrics-stream", ".ndjson", metrics_stream);
      ( "md5-faults-all-layers",
        "md5-faults",
        ".json",
        fun () -> measurement_string (md5_faults_all_layers ()) );
      ("faults-md5", "faults-md5", ".json", faults_md5);
      ("trace-md5-faults", "trace-md5-faults", ".json", trace_md5_faults);
    ]
