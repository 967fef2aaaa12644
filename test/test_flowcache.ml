(* Sim-side flow-cache coverage: the lookup state machine and TTL
   expiry through the public API, the alias sampler's domain, the
   per-class attribution arithmetic, the model↔sim acceptance join
   (hit ratios within 5 points at the golden seed), the versioned
   report JSON, and the configuration error paths.

   Horizon discipline: cache hit ratios have a cold-start transient
   that scales with table capacity (a 1024-entry table needs ~1024
   cold packets before evictions reach steady state), so the join
   tests use small tables and a window tens of times the fill time. *)

open Helpers
module Sim = Lognic_sim
module FC = Lognic.Flowcache
module SFC = Sim.Flow_cache
module App = Lognic_apps.Flow_cache
module J = Sim.Telemetry.Json

let fc_spec =
  FC.spec ~zipf:1.1 ~emc_entries:256 ~megaflow_entries:1024 ~flows:4096 ()

let config ?(duration = 5e-3) ?(seed = 17) () =
  Sim.Netsim.Config.(default |> with_seed seed |> with_horizon duration)

let report ?duration ?seed () =
  Sim.Explain.run_flowcache
    ~config:(config ?duration ?seed ())
    fc_spec (App.graph App.default) ~hw:App.hardware
    ~traffic:(App.traffic App.default)

(* ---- lookup state machine through the public API --------------------- *)

let lookup_state_machine () =
  let st = SFC.create ~spec:fc_spec ~warmup:0. in
  (* an unseen flow misses both tables (cold) and gets installed *)
  Alcotest.(check bool) "emc cold miss" false (SFC.emc_lookup st ~now:0. ~flow:7);
  Alcotest.(check bool) "mega cold miss" false
    (SFC.mega_lookup st ~now:0. ~flow:7);
  Alcotest.(check bool) "emc hit after install" true
    (SFC.emc_lookup st ~now:1e-6 ~flow:7);
  (* an EMC-evicted flow still hits the larger megaflow table (warm),
     and the hit promotes it back into the EMC *)
  let tiny = FC.spec ~emc_entries:1 ~megaflow_entries:64 ~flows:16 () in
  let st = SFC.create ~spec:tiny ~warmup:0. in
  ignore (SFC.emc_lookup st ~now:0. ~flow:1);
  ignore (SFC.mega_lookup st ~now:0. ~flow:1);
  ignore (SFC.emc_lookup st ~now:1e-6 ~flow:2);
  ignore (SFC.mega_lookup st ~now:1e-6 ~flow:2);
  (* the 1-entry EMC now holds flow 2; flow 1 was evicted *)
  Alcotest.(check bool) "evicted from 1-entry emc" false
    (SFC.emc_lookup st ~now:2e-6 ~flow:1);
  Alcotest.(check bool) "warm hit in megaflow" true
    (SFC.mega_lookup st ~now:2e-6 ~flow:1);
  Alcotest.(check bool) "promoted back into emc" true
    (SFC.emc_lookup st ~now:3e-6 ~flow:1)

let ttl_expires_entries () =
  let spec = FC.spec ~ttl:1e-3 ~emc_entries:16 ~megaflow_entries:16 ~flows:8 () in
  let st = SFC.create ~spec ~warmup:0. in
  ignore (SFC.emc_lookup st ~now:0. ~flow:3);
  ignore (SFC.mega_lookup st ~now:0. ~flow:3);
  Alcotest.(check bool) "hit within ttl" true
    (SFC.emc_lookup st ~now:5e-4 ~flow:3);
  (* that hit refreshed the stamp to 5e-4; 1.6e-3 is past another ttl *)
  Alcotest.(check bool) "emc entry expired after idle ttl" false
    (SFC.emc_lookup st ~now:1.6e-3 ~flow:3);
  Alcotest.(check bool) "megaflow entry expired too" false
    (SFC.mega_lookup st ~now:1.6e-3 ~flow:3)

let sampler_domain_and_skew () =
  let st = SFC.create ~spec:fc_spec ~warmup:0. in
  let lattice = 1 lsl 30 in
  let hits0 = ref 0 and n = 65536 in
  for i = 0 to n - 1 do
    let bits = i * 16381 mod lattice in
    let f = SFC.draw st ~bits in
    if f < 0 || f >= 4096 then
      Alcotest.failf "draw out of range: flow %d from bits %d" f bits;
    if f = 0 then incr hits0
  done;
  (* Zipf(1.1) over 4096 flows gives the top flow ~11.5% of the mass;
     a uniform population would give 0.024%. The grid sweep above is
     near-uniform over the lattice, so the empirical share must sit
     close to the model's weight for flow 0. *)
  let w = (FC.zipf_weights ~flows:4096 ~s:1.1).(0) in
  check_within ~pct:5. "top-flow popularity matches the zipf weight" w
    (float_of_int !hits0 /. float_of_int n);
  (* same bits, same flow: the draw is a pure function of the lattice
     point *)
  Alcotest.(check int) "draw is deterministic" (SFC.draw st ~bits:12345)
    (SFC.draw st ~bits:12345)

(* ---- per-class attribution ------------------------------------------- *)

let classes_partition_delivered () =
  let r = report () in
  let stats = r.Sim.Explain.fc_stats in
  let delivered =
    r.Sim.Explain.fc_measurement.Sim.Netsim.summary
      .Sim.Telemetry.delivered_packets
  in
  let total =
    Array.fold_left
      (fun acc (c : SFC.class_row) -> acc + c.SFC.c_count)
      0 stats.SFC.fc_classes
  in
  Alcotest.(check int) "class counts sum to delivered packets" delivered total;
  let share =
    Array.fold_left (fun acc c -> acc +. c.SFC.c_share) 0. stats.SFC.fc_classes
  in
  check_close "class shares sum to 1" 1. share;
  Array.iter
    (fun (c : SFC.class_row) ->
      if c.SFC.c_count > 0 then begin
        if c.SFC.c_mean_latency > c.SFC.c_max_latency then
          Alcotest.failf "%s: mean %.3g above max %.3g" c.SFC.c_name
            c.SFC.c_mean_latency c.SFC.c_max_latency;
        if c.SFC.c_p99_latency > c.SFC.c_max_latency then
          Alcotest.failf "%s: p99 %.3g above max %.3g" c.SFC.c_name
            c.SFC.c_p99_latency c.SFC.c_max_latency
      end)
    stats.SFC.fc_classes;
  (* the cold path crosses the 20 µs slow-path round trip, so its mean
     must dominate the hot path's *)
  let mean k = stats.SFC.fc_classes.(k).SFC.c_mean_latency in
  if not (mean 2 > mean 0) then
    Alcotest.failf "cold mean %.3g not above hot mean %.3g" (mean 2) (mean 0)

let lookup_counters_consistent () =
  let r = report () in
  let s = r.Sim.Explain.fc_stats in
  (* every megaflow probe is an EMC miss that survived to the megaflow
     vertex (drops in between can only lose probes, never invent them) *)
  let emc_misses = s.SFC.fc_emc_lookups - s.SFC.fc_emc_hits in
  if s.SFC.fc_mega_lookups > emc_misses then
    Alcotest.failf "megaflow probes %d exceed emc misses %d"
      s.SFC.fc_mega_lookups emc_misses;
  List.iter
    (fun (what, x) ->
      if not (Float.is_finite x && x >= 0. && x <= 1.) then
        Alcotest.failf "%s ratio %.4f outside [0, 1]" what x)
    [
      ("emc", s.SFC.fc_emc_hit_ratio);
      ("megaflow", s.SFC.fc_mega_hit_ratio);
      ("overall", s.SFC.fc_overall_hit_ratio);
    ];
  check_close "overall = hits over emc probes"
    (float_of_int (s.SFC.fc_emc_hits + s.SFC.fc_mega_hits)
    /. float_of_int s.SFC.fc_emc_lookups)
    s.SFC.fc_overall_hit_ratio

(* ---- model vs sim acceptance ----------------------------------------- *)

(* The headline acceptance criterion: at the golden seed the model's
   fixed-point hit ratios land within 5 points (absolute) of the
   simulator's measured ones. *)
let model_matches_sim_hit_ratios () =
  (* the 1024-entry megaflow table needs a window well past its fill
     time: 5 ms leaves a ~6-point cold-start residual on the megaflow
     ratio, 20 ms settles it *)
  let r = report ~duration:2e-2 () in
  List.iter
    (fun (what, err) ->
      if not (Float.is_finite err && err <= 0.05) then
        Alcotest.failf "%s hit-ratio error %.4f exceeds 0.05" what err)
    [
      ("emc", r.Sim.Explain.fc_emc_hit_error);
      ("megaflow", r.Sim.Explain.fc_mega_hit_error);
      ("overall", r.Sim.Explain.fc_overall_hit_error);
    ]

(* ---- report JSON ------------------------------------------------------ *)

let report_json_shape () =
  let j = Sim.Explain.flowcache_to_json (report ()) in
  Alcotest.(check bool) "schema stamp" true
    (J.member "schema" j = Some (J.Str "flowcache"));
  Alcotest.(check bool) "version stamp" true
    (J.member "schema_version" j = Some (J.Num 1.));
  List.iter
    (fun key ->
      if J.member key j = None then Alcotest.failf "missing %S section" key)
    [ "model"; "sim"; "emc_hit_error"; "classes"; "sim_detail" ];
  let rec all_finite = function
    | J.Num x -> Float.is_finite x
    | J.Obj kvs -> List.for_all (fun (_, v) -> all_finite v) kvs
    | J.Arr vs -> List.for_all all_finite vs
    | _ -> true
  in
  Alcotest.(check bool) "all numbers finite" true (all_finite j)

(* The `lognic flowcache --flows 100K --emc 1K --megaflow 8K --duration
   0.05` run (SI suffixes: 1K is 1000 entries) at the CLI's default
   seed, load and queue model, read back through the JSON reader: schema
   stamp, convergence, class order, hit errors within 5 points and a
   self-consistent sim account. *)
let cli_smoke_report () =
  let spec = FC.spec ~emc_entries:1000 ~megaflow_entries:8000 ~flows:100_000 () in
  let r =
    Sim.Explain.run_flowcache
      ~config:(config ~duration:0.05 ~seed:1 ())
      ~queue_model:Lognic.Latency.Mm1n_model spec (App.graph App.default)
      ~hw:App.hardware
      ~traffic:(App.traffic ~load:0.5 App.default)
  in
  let j = json_reparse (Sim.Explain.flowcache_to_json r) in
  let get = json_get and num = json_num and arr = json_arr in
  Alcotest.(check bool) "schema stamp" true
    (get j [ "schema" ] = J.Str "flowcache" && num j [ "schema_version" ] = 1.);
  Alcotest.(check bool) "fixed point converged" true
    (get j [ "model"; "converged" ] = J.Bool true);
  Alcotest.(check bool) "classes hot, warm, cold" true
    (List.map (fun c -> get c [ "name" ]) (arr j [ "classes" ])
    = [ J.Str "hot"; J.Str "warm"; J.Str "cold" ]);
  List.iter
    (fun k ->
      if not (num j [ k ] <= 0.05) then
        Alcotest.failf "%s %.4f exceeds 0.05" k (num j [ k ]))
    [ "emc_hit_error"; "megaflow_hit_error"; "overall_hit_error" ];
  let sim = get j [ "sim_detail" ] in
  let emc = num sim [ "emc_lookups" ] and mega = num sim [ "mega_lookups" ] in
  Alcotest.(check bool) "emc_lookups >= mega_lookups > 0" true
    (emc >= mega && mega > 0.);
  List.iter
    (fun k ->
      let x = num sim [ k ] in
      if not (x >= 0. && x <= 1.) then Alcotest.failf "%s %.4f outside [0, 1]" k x)
    [ "emc_hit_ratio"; "mega_hit_ratio"; "overall_hit_ratio" ];
  let classes = arr sim [ "classes" ] in
  let sum k = List.fold_left (fun acc c -> acc +. num c [ k ]) 0. classes in
  Alcotest.(check bool) "delivered packets" true (sum "delivered" > 0.);
  Alcotest.(check bool) "class shares sum to 1" true
    (Float.abs (sum "share" -. 1.) < 1e-9);
  List.iter
    (fun c ->
      if num c [ "mean_latency" ] > num c [ "max_latency" ] +. 1e-18 then
        Alcotest.failf "mean latency above max latency")
    classes

(* ---- error paths ------------------------------------------------------ *)

let missing_cache_vertex_raises () =
  let g =
    Lognic_devices.Liquidio.inline_accel_graph
      ~spec:Lognic_devices.Accel_spec.md5 ~packet_size:Lognic.Units.mtu ()
  in
  let config =
    Sim.Netsim.Config.(
      default |> with_horizon 1e-4 |> with_flow_cache fc_spec)
  in
  check_raises_invalid "md5 graph has no emc vertex" (fun () ->
      Sim.Netsim.run_single ~config g ~hw:Lognic_devices.Liquidio.hardware
        ~traffic:(Lognic.Traffic.make ~rate:1e9 ~packet_size:512.))

let suite =
  [
    quick "flowcache: lookup state machine" lookup_state_machine;
    quick "flowcache: ttl expiry" ttl_expires_entries;
    quick "flowcache: sampler domain and skew" sampler_domain_and_skew;
    slow "flowcache: classes partition delivered" classes_partition_delivered;
    slow "flowcache: lookup counters consistent" lookup_counters_consistent;
    slow "flowcache: model hit ratios within 5 points of sim"
      model_matches_sim_hit_ratios;
    slow "flowcache: report JSON shape" report_json_shape;
    slow "flowcache: CLI smoke report (100K flows)" cli_smoke_report;
    quick "flowcache: missing cache vertex raises" missing_cache_vertex_raises;
  ]
