(* Multi-tenant SR-IOV layer: spec/set validation and canonicalization,
   the alias-table tenant draw, the two-stage hierarchical arbiter's
   grant order, per-VF attribution closure against the aggregate
   telemetry, and the shared colon-spec grammar. *)

open Helpers
module S = Lognic_sim
module N = Lognic_numerics
module T = S.Tenant

(* ---- spec / set validation ------------------------------------------- *)

let spec_validation () =
  check_raises_invalid "empty name" (fun () -> T.spec "");
  check_raises_invalid "weight 0" (fun () -> T.spec ~weight:0 "a");
  check_raises_invalid "share 0" (fun () -> T.spec ~share:0. "a");
  check_raises_invalid "share nan" (fun () -> T.spec ~share:Float.nan "a");
  check_raises_invalid "slo 0" (fun () -> T.spec ~slo_p99:0. "a");
  check_raises_invalid "slo nan" (fun () -> T.spec ~slo_p99:Float.nan "a");
  check_raises_invalid "empty set" (fun () -> T.set []);
  check_raises_invalid "duplicate name" (fun () ->
      T.set [ T.spec "a"; T.spec "a" ]);
  check_raises_invalid "uniform 0" (fun () -> T.uniform 0)

let set_canonicalizes () =
  (* each name carries a distinct weight, so the weight vector reads
     off the canonical order *)
  let zeta = T.spec ~weight:3 "zeta" and alpha = T.spec ~weight:1 "alpha" in
  let mid = T.spec ~weight:2 "mid" in
  let a = T.set [ zeta; alpha; mid ] and b = T.set [ mid; zeta; alpha ] in
  Alcotest.(check (array int)) "name-sorted" [| 1; 2; 3 |] (T.weights a);
  Alcotest.(check (array int)) "order-independent" (T.weights a) (T.weights b);
  let s = T.set [ T.spec ~share:3. "a"; T.spec ~share:1. "b" ] in
  let shares = T.shares s in
  check_close "share normalized" 0.75 shares.(0);
  check_close "shares sum to 1" 1. (Array.fold_left ( +. ) 0. shares);
  Alcotest.(check int) "uniform count" 2000 (T.count (T.uniform 2000))

(* ---- tenant draw ----------------------------------------------------- *)

(* The alias table must realize the share distribution: sample it from
   a fixed seed and compare each tenant's frequency to its configured
   share. *)
let alias_draw_matches_shares () =
  let s =
    T.set
      [
        T.spec ~share:4. "a";
        T.spec ~share:2. "b";
        T.spec ~share:1. "c";
        T.spec ~share:1. "d";
      ]
  in
  let rng = N.Rng.create ~seed:11 in
  let n = 200_000 in
  let counts = Array.make 4 0 in
  for _ = 1 to n do
    let i = T.index_of_bits s (N.Rng.bits rng) in
    counts.(i) <- counts.(i) + 1
  done;
  let shares = T.shares s in
  Array.iteri
    (fun i c ->
      check_within ~pct:3. "alias frequency matches share" shares.(i)
        (float_of_int c /. float_of_int n))
    counts

(* ---- hierarchical arbiter -------------------------------------------- *)

let hier_node ?(engines = 1) ?(group_weights = [| 3; 1 |]) ?class_weights e =
  let groups = Array.length group_weights in
  let class_weights =
    match class_weights with
    | Some cw -> cw
    | None -> Array.make groups [| 1 |]
  in
  S.Ip_node.create_hierarchical e
    ~rng:(N.Rng.create ~seed:3)
    ~label:"hier" ~engines ~rate_per_engine:1. ~entries_per_queue:100
    ~group_weights ~class_weights ~service_dist:S.Ip_node.Deterministic

(* Count how many of [served] fall in each consecutive window of
   [width] grants, reporting group-0 counts per full window. *)
let window_counts width served =
  let arr = Array.of_list served in
  List.init
    (Array.length arr / width)
    (fun w ->
      let c = ref 0 in
      for i = w * width to ((w + 1) * width) - 1 do
        if arr.(i) = 0 then incr c
      done;
      !c)

let hier_group_wrr_order () =
  let e = S.Engine.create () in
  let node = hier_node e in
  let order = ref [] in
  (* first submit grants immediately (idle node, single-class groups);
     the rest queue behind the busy engine and drain by group credit:
     every full round of 4 queued grants carries 3 from the weight-3
     group and 1 from the weight-1 group, whichever group the round
     happens to start with *)
  for _ = 1 to 10 do
    ignore (S.Ip_node.submit_at node ~queue:0 ~work:1. (fun () -> order := 0 :: !order))
  done;
  for _ = 1 to 4 do
    ignore (S.Ip_node.submit_at node ~queue:1 ~work:1. (fun () -> order := 1 :: !order))
  done;
  S.Engine.run e;
  let served = List.rev !order in
  Alcotest.(check int) "all served" 14 (List.length served);
  (* 9 queued in the heavy group, 4 in the light one: three full
     credit rounds before either drains *)
  let queued = List.filteri (fun i _ -> i > 0 && i <= 12) served in
  Alcotest.(check (list int))
    "3 heavy grants per round of 4" [ 3; 3; 3 ] (window_counts 4 queued)

let hier_work_conserving () =
  let e = S.Engine.create () in
  let node = hier_node ~group_weights:[| 9; 1 |] e in
  let served = ref 0 in
  (* only the light group has work: its queue must still drain at full
     rate, and a group never blocks an idle round *)
  for _ = 1 to 5 do
    ignore (S.Ip_node.submit_at node ~queue:1 ~work:1. (fun () -> incr served))
  done;
  S.Engine.run e;
  Alcotest.(check int) "light group served alone" 5 !served

let hier_class_wrr_within_group () =
  let e = S.Engine.create () in
  let node =
    hier_node ~group_weights:[| 1 |] ~class_weights:[| [| 2; 1 |] |] e
  in
  let order = ref [] in
  (* one group, two class queues weighted 2:1 — multi-class groups keep
     the full enqueue/grant path even when idle (the stage-2 cursor is
     observable), so every grant follows the expanded class pattern:
     each full window of 3 carries 2 class-0 grants and 1 class-1 *)
  for _ = 1 to 8 do
    ignore (S.Ip_node.submit_at node ~queue:0 ~work:1. (fun () -> order := 0 :: !order))
  done;
  for _ = 1 to 4 do
    ignore (S.Ip_node.submit_at node ~queue:1 ~work:1. (fun () -> order := 1 :: !order))
  done;
  S.Engine.run e;
  let served = List.rev !order in
  Alcotest.(check int) "all served" 12 (List.length served);
  let first_nine = List.filteri (fun i _ -> i < 9) served in
  Alcotest.(check (list int))
    "2 heavy grants per window of 3" [ 2; 2; 2 ] (window_counts 3 first_nine)

let hier_reactivation_fresh_credit () =
  let e = S.Engine.create () in
  let node = hier_node ~group_weights:[| 2; 2 |] e in
  let order = ref [] in
  let sub q = ignore (S.Ip_node.submit_at node ~queue:q ~work:1. (fun () -> order := q :: !order)) in
  (* drain group 0 completely, then backlog both groups: group 0 must
     rejoin the ring with a fresh credit grant, not a stale one — every
     full round of 4 queued grants after reactivation still splits
     2:2 *)
  sub 0;
  sub 0;
  S.Engine.run e;
  for _ = 1 to 5 do
    sub 0;
    sub 1
  done;
  S.Engine.run e;
  let served = List.rev !order in
  Alcotest.(check int) "all served" 12 (List.length served);
  (* phase 2: first submit fast-grants, leaving 4 queued per group *)
  let queued = List.filteri (fun i _ -> i > 3 && i <= 11) served in
  Alcotest.(check (list int))
    "fresh 2:2 rounds after reactivation" [ 2; 2 ] (window_counts 4 queued)

(* ---- attribution closes against the aggregate ------------------------ *)

let attribution_sums_to_aggregate () =
  let module D = Lognic_devices in
  let graph =
    D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5
      ~packet_size:Lognic.Units.mtu ()
  in
  let traffic =
    Lognic.Traffic.make
      ~rate:(2. *. D.Liquidio.line_rate)
      ~packet_size:Lognic.Units.mtu
  in
  let tenants =
    T.set
      (T.spec ~weight:4 ~share:2. "gold" :: T.spec ~weight:2 "silver"
      :: List.init 6 (fun i -> T.spec (Printf.sprintf "vf%d" i)))
  in
  let config =
    S.Netsim.Config.(
      default |> with_horizon ~warmup:2e-4 2e-3 |> with_seed 17
      |> with_tenants tenants)
  in
  let m = S.Netsim.run_single ~config graph ~hw:D.Liquidio.hardware ~traffic in
  match m.S.Netsim.tenants with
  | None -> Alcotest.fail "tenanted run reported no tenant stats"
  | Some stats ->
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 stats.T.rows in
    let sumf f = Array.fold_left (fun acc r -> acc +. f r) 0. stats.T.rows in
    let s = m.S.Netsim.summary in
    (* overload: both drops and deliveries are present, so the closure
       is exercised on every account *)
    Alcotest.(check bool) "has drops" true (s.S.Telemetry.dropped_packets > 0);
    Alcotest.(check bool)
      "has deliveries" true
      (s.S.Telemetry.delivered_packets > 0);
    Alcotest.(check int) "offered closes" s.S.Telemetry.offered_packets
      (sum (fun r -> r.T.r_offered));
    Alcotest.(check int) "delivered closes" s.S.Telemetry.delivered_packets
      (sum (fun r -> r.T.r_delivered));
    Alcotest.(check int) "dropped closes" s.S.Telemetry.dropped_packets
      (sum (fun r -> r.T.r_dropped));
    check_close "delivered bytes close" s.S.Telemetry.delivered_bytes
      (sumf (fun r -> r.T.r_delivered_bytes));
    check_close "throughput closes" s.S.Telemetry.throughput
      (sumf (fun r -> r.T.r_throughput))

(* ---- colon-spec grammar ---------------------------------------------- *)

let tenant_grammar =
  S.Spec.grammar ~flag:"tenant"
    [
      S.Spec.field "NAME" S.Spec.Str;
      S.Spec.field "WEIGHT" S.Spec.Int;
      S.Spec.field ~optional:true "SHARE" S.Spec.Float;
      S.Spec.field ~optional:true "SLO" S.Spec.Float;
    ]

let spec_grammar_parses () =
  (match S.Spec.parse tenant_grammar "gold" with
  | Error e ->
    Alcotest.(check bool) ("usage string in " ^ e) true
      (contains_substring e "expected NAME:WEIGHT[:SHARE[:SLO]]")
  | Ok _ -> Alcotest.fail "gold without a weight accepted");
  (match S.Spec.parse tenant_grammar "gold:4" with
  | Ok v ->
    Alcotest.(check string) "name" "gold" (S.Spec.get_str v 0);
    Alcotest.(check int) "weight" 4 (S.Spec.get_int v 1);
    Alcotest.(check bool) "share omitted" true (S.Spec.find_float v 2 = None)
  | Error e -> Alcotest.failf "gold:4 rejected: %s" e);
  match S.Spec.parse tenant_grammar "gold:4:2.5:0.001" with
  | Ok v ->
    check_close "share" 2.5 (S.Spec.get_float v 2);
    check_close "slo" 0.001 (S.Spec.get_float v 3)
  | Error e -> Alcotest.failf "full spec rejected: %s" e

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let spec_grammar_errors () =
  let expect_error src fragment =
    match S.Spec.parse tenant_grammar src with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" src
    | Error e ->
      if not (contains_sub e fragment) then
        Alcotest.failf "%S error %S lacks %S" src e fragment
  in
  expect_error "gold" "at least 2";
  expect_error "gold:x" "WEIGHT";
  expect_error "gold:4:a" "SHARE";
  expect_error "a:1:2:3:4:5" "at most";
  expect_error ":4" "NAME"

(* ---- CLI smoke report ------------------------------------------------ *)

(* The run `lognic tenants examples/graphs/echo_md5.lognic --duration
   0.02 --tenant gold:8:4:0.001 --tenant silver:4:2 --tenant bronze:2`
   makes (default seed and queue model), with its report JSON read back
   through [Telemetry.Json]; test/cli.t runs the CLI itself. *)
let cli_smoke_report () =
  let doc =
    match Lognic_dsl.Parser.parse_file "../examples/graphs/echo_md5.lognic" with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "echo_md5.lognic: %s" e
  in
  let tenants =
    T.set
      [
        T.spec ~weight:8 ~share:4. ~slo_p99:0.001 "gold";
        T.spec ~weight:4 ~share:2. "silver";
        T.spec ~weight:2 "bronze";
      ]
  in
  let r =
    S.Explain.run_tenants
      ~config:S.Netsim.Config.(default |> with_horizon 0.02 |> with_seed 1)
      ~queue_model:Lognic.Latency.Mm1n_model doc.Lognic_dsl.Parser.graph
      ~hw:(Option.get doc.Lognic_dsl.Parser.hardware)
      ~traffic:(Option.get doc.Lognic_dsl.Parser.traffic)
      ~tenants
  in
  let j = json_reparse (S.Explain.tenants_to_json r) in
  Alcotest.(check bool) "schema stamp" true
    (json_get j [ "schema" ] = Json.Str "tenants"
    && json_num j [ "schema_version" ] = 1.);
  Alcotest.(check bool) "tenant rows bronze, gold, silver" true
    (List.map (fun row -> json_get row [ "name" ]) (json_arr j [ "tenants" ])
    = [ Json.Str "bronze"; Json.Str "gold"; Json.Str "silver" ]);
  let sim = json_arr j [ "sim_detail"; "tenants" ] in
  let sum k = List.fold_left (fun acc row -> acc +. json_num row [ k ]) 0. sim in
  Alcotest.(check bool) "delivered packets" true (sum "delivered" > 0.);
  let agg = json_num j [ "sim"; "throughput" ] in
  if not (Float.abs (sum "throughput" -. agg) <= 1e-6 *. agg) then
    Alcotest.failf "per-VF throughput %.9g does not close on %.9g"
      (sum "throughput") agg;
  let jain = json_num j [ "sim_detail"; "fairness"; "jain" ] in
  Alcotest.(check bool) "0 <= jain <= 1" true (jain >= 0. && jain <= 1.);
  Alcotest.(check bool) "maxmin_ratio <= 1" true
    (json_num j [ "sim_detail"; "fairness"; "maxmin_ratio" ] <= 1.)

let suite =
  [
    quick "tenant: spec validation" spec_validation;
    quick "tenant: set canonicalizes" set_canonicalizes;
    quick "tenant: alias draw matches shares" alias_draw_matches_shares;
    quick "hier: group WRR order" hier_group_wrr_order;
    quick "hier: work conserving" hier_work_conserving;
    quick "hier: class WRR within group" hier_class_wrr_within_group;
    quick "hier: reactivation fresh credit" hier_reactivation_fresh_credit;
    quick "tenant: attribution sums to aggregate" attribution_sums_to_aggregate;
    quick "spec: tenant grammar parses" spec_grammar_parses;
    quick "spec: tenant grammar errors" spec_grammar_errors;
    quick "tenants: CLI smoke report" cli_smoke_report;
  ]
