(* Tests for the runtime invariant checkers: the generic check
   primitives, the packet-fate ledger, the summary self-consistency
   laws, and the Netsim wiring. The checkers only earn their keep if
   they can actually FAIL, so half of these tests feed them corrupted
   data and assert the right law fires. *)

open Helpers
module S = Lognic_sim
module I = Lognic_sim.Invariants
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic

let config check_invariants =
  S.Netsim.Config.(
    default |> with_horizon 2e-3 |> with_invariants check_invariants)

let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500.

let laws report = List.map (fun (v : I.violation) -> v.law) report.I.violations

let clean_summary () =
  let m = S.Netsim.run_single ~config:(config false) (pipeline ()) ~hw ~traffic in
  (m.S.Netsim.summary, (config false).S.Netsim.duration)

(* The end-of-run laws on no nodes or media: the ledger's closing entry
   and the summary laws. *)
let check_horizon t ~generated (s, horizon) =
  I.check_horizon t ~horizon ~nodes:[] ~media:[] ~generated s

(* Deliver [id] with a flight that tiles exactly, so only the fate law
   can fail. *)
let deliver t ~id ~born ~time =
  let module T = S.Telemetry in
  let fs = Array.make T.flight_slots 0. in
  fs.(T.slot_born) <- born;
  fs.(T.slot_service) <- time -. born;
  I.check_delivery t ~id ~time fs

(* --- generic check primitives --- *)

let check_close_basics () =
  let t = I.create () in
  I.check_close t ~law:"l" ~entity:"e" ~time:0. ~expected:1. ~actual:1. "ok";
  I.check_close t ~law:"l" ~entity:"e" ~time:0. ~expected:1e12 ~actual:(1e12 +. 1.)
    "relative tolerance scales with magnitude";
  Alcotest.(check int) "no violations yet" 0 (I.report t).I.total_violations;
  I.check_close t ~law:"l" ~entity:"e" ~time:3. ~expected:1. ~actual:1.5 "off";
  I.check_close t ~law:"l" ~entity:"e" ~time:4. ~expected:1. ~actual:Float.nan
    "non-finite actual always fails";
  let r = I.report t in
  Alcotest.(check int) "checks counted" 4 r.I.checks;
  Alcotest.(check int) "two failures" 2 r.I.total_violations;
  let v = List.hd r.I.violations in
  Alcotest.(check string) "law" "l" v.I.law;
  Alcotest.(check (float 0.)) "time" 3. v.I.time;
  check_close "expected stored" 1. v.I.expected;
  check_close "actual stored" 1.5 v.I.actual

let check_bound_and_count () =
  let t = I.create () in
  I.check_bound t ~law:"b" ~entity:"e" ~time:0. ~limit:10. ~actual:10. "at limit";
  I.check_bound t ~law:"b" ~entity:"e" ~time:0. ~limit:10. ~actual:9. "below";
  I.check_count t ~law:"c" ~entity:"e" ~time:0. ~expected:7 ~actual:7 "equal";
  Alcotest.(check int) "all pass" 0 (I.report t).I.total_violations;
  I.check_bound t ~law:"b" ~entity:"e" ~time:0. ~limit:10. ~actual:10.1 "above";
  I.check_count t ~law:"c" ~entity:"e" ~time:0. ~expected:7 ~actual:8 "off by one";
  I.check_nonneg t ~law:"n" ~entity:"e" ~time:0. ~actual:(-0.5) "negative";
  let r = I.report t in
  Alcotest.(check int) "three failures" 3 r.I.total_violations;
  Alcotest.(check (list string)) "laws in detection order" [ "b"; "c"; "n" ] (laws r)

let violation_cap () =
  let t = I.create () in
  for i = 1 to 250 do
    I.check_count t ~law:"cap" ~entity:"e" ~time:(float_of_int i) ~expected:0
      ~actual:i "always wrong"
  done;
  let r = I.report t in
  Alcotest.(check int) "every failure counted" 250 r.I.total_violations;
  Alcotest.(check int) "recorded list capped at 100" 100
    (List.length r.I.violations);
  (* the cap keeps the FIRST violations, the ones closest to the cause *)
  check_close "first recorded is the earliest" 1. (List.hd r.I.violations).I.time

(* --- packet-fate ledger --- *)

let fate_ledger () =
  let t = I.create () in
  I.packet_injected t ~id:1 ~time:0.;
  I.packet_injected t ~id:2 ~time:0.1;
  I.packet_injected t ~id:3 ~time:0.2;
  deliver t ~id:1 ~born:0. ~time:0.5;
  I.packet_dropped t ~id:2 ~time:0.6;
  let clean = clean_summary () in
  check_horizon t ~generated:3 clean;
  Alcotest.(check int) "books balance" 0 (I.report t).I.total_violations;
  (* the ledger is a bitmap indexed by id: the first id and one far
     past its initial size, which forces it to grow *)
  I.packet_injected t ~id:0 ~time:1.;
  I.packet_injected t ~id:3_000_000 ~time:1.;
  deliver t ~id:3_000_000 ~born:1. ~time:1.5;
  I.packet_dropped t ~id:0 ~time:1.5;
  deliver t ~id:3 ~born:0.2 ~time:1.5;
  check_horizon t ~generated:5 clean;
  Alcotest.(check int) "grown ledger balances" 0 (I.report t).I.total_violations;
  check_horizon t ~generated:4 clean;
  Alcotest.(check bool) "generator disagreement caught" true
    (List.mem "packet-conservation" (laws (I.report t)))

let fate_double_delivery () =
  let t = I.create () in
  I.packet_injected t ~id:7 ~time:0.;
  deliver t ~id:7 ~born:0. ~time:0.5;
  Alcotest.(check int) "clean so far" 0 (I.report t).I.total_violations;
  deliver t ~id:7 ~born:0. ~time:0.6;
  I.packet_dropped t ~id:99 ~time:0.7;
  let r = I.report t in
  Alcotest.(check int) "double delivery and orphan drop" 2 r.I.total_violations;
  Alcotest.(check (list string)) "both are fate violations"
    [ "packet-fate"; "packet-fate" ] (laws r);
  Alcotest.(check (list string)) "each names its packet" [ "packet-7"; "packet-99" ]
    (List.map (fun (v : I.violation) -> v.entity) r.I.violations);
  Alcotest.(check (list string)) "and how it was resolved"
    [
      "delivered without a live injection (double delivery/drop?)";
      "dropped without a live injection (double delivery/drop?)";
    ]
    (List.map (fun (v : I.violation) -> v.detail) r.I.violations)

let tiling_corruption_is_caught () =
  let module T = S.Telemetry in
  let t = I.create () in
  let fs = Array.make T.flight_slots 0. in
  fs.(T.slot_born) <- 0.1;
  fs.(T.slot_queueing) <- 0.1;
  fs.(T.slot_service) <- 0.2;
  I.packet_injected t ~id:6 ~time:0.1;
  I.check_delivery t ~id:6 ~time:0.4 fs;
  Alcotest.(check int) "a tiled flight passes" 0 (I.report t).I.total_violations;
  I.packet_injected t ~id:7 ~time:0.1;
  fs.(T.slot_wire) <- 0.05;
  I.check_delivery t ~id:7 ~time:0.4 fs;
  let r = I.report t in
  Alcotest.(check int) "inject, deliver, tile: 3 checks per packet" 6 r.I.checks;
  match r.I.violations with
  | [ v ] ->
    Alcotest.(check string) "law" "latency-tiling" v.I.law;
    Alcotest.(check string) "entity" "packet-7" v.I.entity;
    check_close "expected is birth to egress" 0.3 v.I.expected;
    check_close "actual is the corrupted sum" 0.35 v.I.actual
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let event_monotonicity () =
  let t = I.create () in
  List.iter (I.observe_event_time t) [ 0.; 0.5; 0.5; 1.0 ];
  Alcotest.(check int) "non-decreasing times pass" 0
    (I.report t).I.total_violations;
  I.observe_event_time t 0.9;
  Alcotest.(check (list string)) "time travel caught" [ "event-monotonicity" ]
    (laws (I.report t))

(* --- summary self-consistency: corrupted telemetry must FAIL --- *)

let corrupt_summary_is_caught () =
  let s, horizon = clean_summary () in
  let fails ~law s' =
    let t = I.create () in
    check_horizon t ~generated:0 (s', horizon);
    Alcotest.(check bool) (law ^ " fires") true (List.mem law (laws (I.report t)))
  in
  let passes s' =
    let t = I.create () in
    check_horizon t ~generated:0 (s', horizon);
    Alcotest.(check int) "clean summary passes" 0 (I.report t).I.total_violations
  in
  passes s;
  fails ~law:"throughput" { s with throughput = s.throughput *. 2. };
  fails ~law:"packet-rate" { s with packet_rate = s.packet_rate +. 1e4 };
  fails ~law:"loss-rate" { s with loss_rate = 1.5 };
  fails ~law:"window" { s with window = horizon *. 2. };
  fails ~law:"latency-terms"
    {
      s with
      latency_terms = { s.latency_terms with service = s.latency_terms.service +. 1e-3 };
    };
  fails ~law:"latency-order" { s with p50_latency = s.p99_latency *. 2. };
  fails ~law:"drop-breakdown" { s with dropped_packets = s.dropped_packets + 1 };
  fails ~law:"class-conservation" { s with delivered_packets = s.delivered_packets + 1 }

(* --- Netsim wiring --- *)

let netsim_clean_run_has_report () =
  let m = S.Netsim.run_single ~config:(config true) (pipeline ()) ~hw ~traffic in
  match m.S.Netsim.invariants with
  | None -> Alcotest.fail "check_invariants=true must attach a report"
  | Some r ->
    Alcotest.(check bool) "thousands of checks ran" true (r.I.checks > 1000);
    Alcotest.(check int) "a healthy run violates nothing" 0 r.I.total_violations;
    Alcotest.(check bool) "ok" true (I.ok r)

let netsim_disabled_run_has_none () =
  let m = S.Netsim.run_single ~config:(config false) (pipeline ()) ~hw ~traffic in
  Alcotest.(check bool) "no report when disabled" true
    (m.S.Netsim.invariants = None)

let netsim_overloaded_run_is_still_lawful () =
  (* saturate the queue so drops and deep queues exercise every law *)
  let m =
    S.Netsim.run_single ~config:(config true)
      (pipeline ~queue:4 ~ip_rate:(1. *. U.gbps) ())
      ~hw
      ~traffic:(T.make ~rate:(8. *. U.gbps) ~packet_size:1500.)
  in
  Alcotest.(check bool) "drops happened" true
    (m.S.Netsim.summary.S.Telemetry.dropped_packets > 0);
  match m.S.Netsim.invariants with
  | None -> Alcotest.fail "report expected"
  | Some r -> Alcotest.(check int) "overload violates no law" 0 r.I.total_violations

let netsim_faulted_run_is_still_lawful () =
  let faults =
    [
      S.Faults.drop_burst ~probability:0.3 ~start:5e-4 ~stop:1e-3;
      S.Faults.queue_shrunk ~vertex:"ip" ~capacity:2 ~start:1e-3 ~stop:1.5e-3;
    ]
  in
  let spec =
    S.Netsim.Run.single ~config:(config true) ~faults (pipeline ()) ~hw ~traffic
  in
  let m = S.Netsim.execute spec in
  match m.S.Netsim.invariants with
  | None -> Alcotest.fail "report expected"
  | Some r -> Alcotest.(check int) "faulted run violates no law" 0 r.I.total_violations

(* --- JSON shape --- *)

let report_json_shape () =
  let t = I.create () in
  I.check_count t ~law:"l" ~entity:"e" ~time:1.5 ~expected:1 ~actual:2 "broken";
  let j = I.report_to_json (I.report t) in
  let module J = S.Telemetry.Json in
  Alcotest.(check (option (float 0.))) "checks" (Some 1.)
    (match J.member "checks" j with Some (J.Num n) -> Some n | _ -> None);
  Alcotest.(check (option (float 0.))) "violations" (Some 1.)
    (match J.member "violations" j with Some (J.Num n) -> Some n | _ -> None);
  match J.member "recorded" j with
  | Some (J.Arr [ v ]) ->
    Alcotest.(check bool) "law field" true
      (J.member "law" v = Some (J.Str "l"));
    (* the export must parse back: it is embedded in `lognic check --json` *)
    let roundtrip = J.of_string (J.to_string j) in
    Alcotest.(check bool) "parses back" true (Result.is_ok roundtrip)
  | _ -> Alcotest.fail "recorded must hold the violation"

let suite =
  [
    quick "invariants: check_close basics" check_close_basics;
    quick "invariants: check_bound / check_count / check_nonneg" check_bound_and_count;
    quick "invariants: violation recording is capped" violation_cap;
    quick "invariants: packet-fate ledger" fate_ledger;
    quick "invariants: double delivery is caught" fate_double_delivery;
    quick "invariants: event-time monotonicity" event_monotonicity;
    quick "invariants: corrupted flight fails latency tiling" tiling_corruption_is_caught;
    quick "invariants: corrupted summaries are caught" corrupt_summary_is_caught;
    quick "invariants: clean netsim run attaches an ok report" netsim_clean_run_has_report;
    quick "invariants: disabled flag attaches nothing" netsim_disabled_run_has_none;
    quick "invariants: overloaded run is lawful" netsim_overloaded_run_is_still_lawful;
    quick "invariants: faulted run is lawful" netsim_faulted_run_is_still_lawful;
    quick "invariants: report JSON shape" report_json_shape;
  ]
