(* Tests for the graph DSL: quantities, parsing, errors, round trips. *)

open Helpers
module Q = Lognic_dsl.Quantity
module P = Lognic_dsl.Parser
module G = Lognic.Graph

let parse_q s =
  match Q.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e

let quantity_rates () =
  check_close "Gbps" 3.125e9 (parse_q "25Gbps");
  check_close "Mbps" 1.25e6 (parse_q "10Mbps");
  check_close "bps" 1. (parse_q "8bps");
  check_close "GB/s" 2e9 (parse_q "2GB/s");
  check_close "MB/s" 5e8 (parse_q "500MB/s")

let quantity_sizes_times_ops () =
  check_close "B" 1500. (parse_q "1500B");
  check_close "KB" 4000. (parse_q "4KB");
  check_close "KiB" 4096. (parse_q "4KiB");
  check_close "MiB" (4. *. 1024. *. 1024.) (parse_q "4MiB");
  check_close "us" 2.5e-6 (parse_q "2.5us");
  check_close "ns" 5e-9 (parse_q "5ns");
  check_close "ms" 1e-3 (parse_q "1ms");
  check_close "s" 3. (parse_q "3s");
  check_close "Mops" 2e6 (parse_q "2Mops")

let quantity_bare_and_bad () =
  check_close "bare number" 42. (parse_q "42");
  check_close "scientific" 2.5e9 (parse_q "2.5e9");
  Alcotest.(check bool) "garbage" true (Result.is_error (Q.parse "fast"));
  Alcotest.(check bool) "empty" true (Result.is_error (Q.parse ""));
  Alcotest.(check bool) "suffix only" true (Result.is_error (Q.parse "Gbps"));
  List.iter
    (fun text ->
      Alcotest.(check bool) ("non-finite " ^ text) true
        (Result.is_error (Q.parse text)))
    [ "nan"; "inf"; "1e400"; "-inf"; "nanGbps" ]

let quantity_printers () =
  Alcotest.(check string) "rate" "25Gbps" (Q.print_rate 3.125e9)

let quantity_whitespace () =
  (* a space (or tab) between magnitude and unit is legal *)
  check_close "spaced Gbps" 1.25e9 (parse_q "10 Gbps");
  check_close "tabbed B" 1500. (parse_q "1500\tB");
  check_close "two spaces" 2.5e-6 (parse_q "2.5  us");
  check_close "surrounding blanks" 1.25e9 (parse_q "  10 Gbps  ");
  Alcotest.(check bool) "space inside the number is still bad" true
    (Result.is_error (Q.parse "1 0Gbps"))

let quantity_print_parse_round_trip () =
  (* print_rate must emit strings parse maps back to the same float *)
  let roundtrip print what v = check_close ~tol:1e-12 what v (parse_q (print v)) in
  List.iter
    (fun v -> roundtrip Q.print_rate (Printf.sprintf "rate %g" v) v)
    [ 1.25e9; 3.125e9; 2e9; 1e6; 42.; 2.7e9 ]

let sample_graph =
  {|
# A SmartNIC echo server
hardware interface=40Gbps memory=50Gbps
vertex rx ingress throughput=25Gbps queue=128
vertex cores ip throughput=6Gbps parallelism=8 queue=64 overhead=1us partition=0.5
vertex md5 ip throughput=21.6Gbps queue=32
vertex tx egress throughput=25Gbps
edge rx -> cores delta=1.0
edge cores -> md5 delta=1.0 beta=1.0
edge md5 -> tx delta=1.0 bandwidth=30Gbps
traffic rate=4Gbps packet=1500B
|}

let parse_ok text =
  match P.parse_string text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let parser_full_document () =
  let doc = parse_ok sample_graph in
  Alcotest.(check int) "vertices" 4 (G.vertex_count doc.graph);
  Alcotest.(check int) "edges" 3 (List.length (G.edges doc.graph));
  Alcotest.(check bool) "valid graph" true (Result.is_ok (G.validate doc.graph));
  (match doc.hardware with
  | Some hw -> check_close "interface" (40. *. Lognic.Units.gbps) hw.bw_interface
  | None -> Alcotest.fail "hardware missing");
  (match doc.traffic with
  | Some t ->
    check_close "rate" (4. *. Lognic.Units.gbps) t.rate;
    check_close "packet" 1500. t.packet_size
  | None -> Alcotest.fail "traffic missing");
  let cores = Option.get (P.vertex_id doc "cores") in
  let v = G.vertex doc.graph cores in
  Alcotest.(check int) "parallelism" 8 v.service.parallelism;
  check_close "partition" 0.5 v.service.partition;
  check_close "overhead" 1e-6 v.service.overhead;
  let e = Option.get (G.edge doc.graph ~src:cores ~dst:(Option.get (P.vertex_id doc "md5"))) in
  check_close "beta" 1. e.beta;
  Alcotest.(check bool) "vertex_id misses" true (P.vertex_id doc "nope" = None)

let parser_defaults () =
  let doc = parse_ok "vertex a ingress\nvertex b egress\nedge a -> b" in
  let a = G.vertex doc.graph 0 in
  Alcotest.(check bool) "unbounded throughput" true (a.service.throughput = infinity);
  let e = List.hd (G.edges doc.graph) in
  check_close "delta default" 1. e.delta;
  check_close "alpha default" 0. e.alpha;
  Alcotest.(check bool) "no hardware" true (doc.hardware = None)

let parser_comments_and_blanks () =
  let doc =
    parse_ok "\n# comment only\nvertex a ingress # trailing\n\nvertex b egress\nedge a -> b\n"
  in
  Alcotest.(check int) "two vertices" 2 (G.vertex_count doc.graph)

let expect_error fragment text =
  match P.parse_string text with
  | Ok _ -> Alcotest.failf "expected error mentioning %S" fragment
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" e fragment)
      true
      (contains_substring e fragment)

let parser_errors () =
  expect_error "unknown statement" "link a -> b";
  expect_error "kind" "vertex a superscalar";
  expect_error "duplicate vertex" "vertex a ingress\nvertex a egress";
  expect_error "unknown vertex" "vertex a ingress\nedge a -> ghost";
  expect_error "key=value" "vertex a ingress bogus";
  expect_error "unknown vertex attribute" "vertex a ingress color=red";
  expect_error "edge syntax" "vertex a ingress\nedge a b";
  expect_error "line 3" "vertex a ingress\nvertex b egress\nedge a -> b delta=wat";
  expect_error "interface" "hardware memory=1Gbps";
  expect_error "rate" "traffic packet=64B"

let parser_rejects_bad_service () =
  expect_error "partition" "vertex a ip throughput=1Gbps partition=2.0"

let roundtrip () =
  let doc = parse_ok sample_graph in
  let printed = Lognic_dsl.Printer.document_to_string doc in
  let doc2 = parse_ok printed in
  Alcotest.(check int) "vertices preserved" (G.vertex_count doc.graph)
    (G.vertex_count doc2.graph);
  Alcotest.(check int) "edges preserved"
    (List.length (G.edges doc.graph))
    (List.length (G.edges doc2.graph));
  (* semantic equality of throughput estimates *)
  let hw = Option.get doc.hardware and traffic = Option.get doc.traffic in
  let hw2 = Option.get doc2.hardware and traffic2 = Option.get doc2.traffic in
  let r1 = Lognic.Estimate.run doc.graph ~hw ~traffic in
  let r2 = Lognic.Estimate.run doc2.graph ~hw:hw2 ~traffic:traffic2 in
  check_close "attained preserved" r1.throughput.Lognic.Throughput.attained
    r2.throughput.Lognic.Throughput.attained;
  check_close "latency preserved" r1.latency.Lognic.Latency.mean
    r2.latency.Lognic.Latency.mean

let parse_file_missing () =
  Alcotest.(check bool)
    "missing file is an error" true
    (Result.is_error (P.parse_file "/nonexistent/graph.lognic"))

let parser_traffic_mix () =
  let doc =
    parse_ok
      (sample_graph
      ^ "class rate=1Gbps packet=64B weight=1\nclass rate=3Gbps packet=1500B weight=3\n")
  in
  (match doc.mix with
  | Some classes ->
    Alcotest.(check int) "two classes" 2 (List.length classes);
    check_close "total rate" (4. *. Lognic.Units.gbps)
      (List.fold_left (fun acc (c, _) -> acc +. c.Lognic.Traffic.rate) 0. classes);
    let normalized = Lognic.Traffic.normalize_weights classes in
    check_close "weight normalization" 0.25 (snd (List.hd normalized))
  | None -> Alcotest.fail "mix missing");
  (* no class lines -> no mix *)
  Alcotest.(check bool) "no classes, no mix" true ((parse_ok sample_graph).mix = None);
  expect_error "class" "class rate=1Gbps";
  expect_error "rate" "class packet=64B"

let mix_roundtrip () =
  let text =
    sample_graph ^ "class rate=1Gbps packet=64B weight=2\n"
  in
  let doc = parse_ok text in
  let doc2 = parse_ok (Lognic_dsl.Printer.document_to_string doc) in
  match (doc.mix, doc2.mix) with
  | Some m1, Some m2 ->
    let total_rate m = List.fold_left (fun acc (c, _) -> acc +. c.Lognic.Traffic.rate) 0. m in
    check_close "mix rate preserved" (total_rate m1) (total_rate m2)
  | _ -> Alcotest.fail "mix lost in round trip"

let properties =
  [
    prop "quantity parse of printed rates"
      QCheck.(float_range 1. 400.)
      (fun gbps ->
        match Q.parse (Printf.sprintf "%.6gGbps" gbps) with
        | Ok v -> abs_float (v -. (gbps *. Lognic.Units.gbps)) < 1e-3 *. v
        | Error _ -> false);
    prop "parser is total: random text never raises" ~count:500
      QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.printable)
      (fun text ->
        match P.parse_string text with Ok _ | Error _ -> true);
    prop "parser is total on statement-shaped garbage" ~count:300
      QCheck.(
        list_of_size (Gen.int_range 1 8)
          (oneofl
             [
               "vertex a ip throughput=1Gbps"; "vertex a"; "edge a -> b";
               "edge -> ->"; "hardware interface=1Gbps"; "traffic rate=x";
               "class weight=-1"; "vertex b egress queue=0"; "# comment";
               "edge a -> a"; "vertex c ip partition=9";
             ]))
      (fun lines ->
        match P.parse_string (String.concat "\n" lines) with
        | Ok _ | Error _ -> true);
  ]

let dot_rendering () =
  let doc = parse_ok sample_graph in
  let dot = Lognic_dsl.Printer.to_dot doc.graph in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "dot mentions %S" fragment)
        true
        (contains_substring dot fragment))
    [ "digraph"; "rankdir=LR"; "cores"; "shape=house"; "shape=box"; "->" ]

let suite =
  [
    quick "quantity: rates" quantity_rates;
    quick "quantity: sizes, times, ops" quantity_sizes_times_ops;
    quick "quantity: bare and bad" quantity_bare_and_bad;
    quick "quantity: printers" quantity_printers;
    quick "quantity: whitespace before the unit" quantity_whitespace;
    quick "quantity: print/parse round trip" quantity_print_parse_round_trip;
    quick "parser: full document" parser_full_document;
    quick "parser: defaults" parser_defaults;
    quick "parser: comments" parser_comments_and_blanks;
    quick "parser: error messages" parser_errors;
    quick "parser: service validation" parser_rejects_bad_service;
    quick "printer: round trip" roundtrip;
    quick "parser: missing file" parse_file_missing;
    quick "parser: traffic mixes" parser_traffic_mix;
    quick "printer: mix round trip" mix_roundtrip;
    quick "printer: DOT rendering" dot_rendering;
  ]
  @ properties
