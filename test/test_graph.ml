(* Tests for the execution-graph representation. *)

open Helpers
module G = Lognic.Graph

let svc ?parallelism ?queue_capacity ?overhead ?accel ?partition throughput =
  G.service ?parallelism ?queue_capacity ?overhead ?accel ?partition ~throughput ()

(* A three-vertex linear chain used by several tests. *)
let chain () =
  let g = G.empty in
  let g, a = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc 1e9) g in
  let g, b = G.add_vertex ~kind:G.Ip ~label:"work" ~service:(svc 5e8) g in
  let g, c = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc 1e9) g in
  let g = G.add_edge ~delta:1. ~alpha:0.5 ~src:a ~dst:b g in
  let g = G.add_edge ~delta:1. ~beta:0.25 ~src:b ~dst:c g in
  (g, a, b, c)

let construction () =
  let g, a, b, c = chain () in
  Alcotest.(check int) "vertex count" 3 (G.vertex_count g);
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "dense ids" 1 b;
  Alcotest.(check int) "dense ids" 2 c;
  Alcotest.(check int) "edges" 2 (List.length (G.edges g));
  Alcotest.(check string) "label" "work" (G.vertex g b).label;
  Alcotest.(check bool) "edge lookup" true (Option.is_some (G.edge g ~src:a ~dst:b));
  Alcotest.(check bool) "absent edge" true (Option.is_none (G.edge g ~src:a ~dst:c))

let accessors () =
  let g, a, b, c = chain () in
  Alcotest.(check int) "in degree" 1 (G.in_degree g b);
  Alcotest.(check int) "ingress count" 1 (List.length (G.ingress_vertices g));
  Alcotest.(check int) "out edges of a" 1 (List.length (G.out_edges g a));
  Alcotest.(check int) "in edges of c" 1 (List.length (G.in_edges g c));
  (match G.find_vertex g ~label:"work" with
  | Some v -> Alcotest.(check int) "find by label" b v.id
  | None -> Alcotest.fail "find_vertex");
  Alcotest.(check bool) "unknown label" true (G.find_vertex g ~label:"nope" = None)

let service_validation () =
  check_raises_invalid "zero throughput" (fun () -> svc 0.);
  check_raises_invalid "zero parallelism" (fun () -> G.service ~parallelism:0 ~throughput:1. ());
  check_raises_invalid "zero queue" (fun () -> G.service ~queue_capacity:0 ~throughput:1. ());
  check_raises_invalid "negative overhead" (fun () ->
      G.service ~overhead:(-1.) ~throughput:1. ());
  check_raises_invalid "partition above 1" (fun () ->
      G.service ~partition:1.5 ~throughput:1. ());
  check_raises_invalid "zero accel" (fun () -> G.service ~accel:0. ~throughput:1. ())

let edge_validation () =
  let g, a, b, _ = chain () in
  check_raises_invalid "unknown src" (fun () -> G.add_edge ~src:99 ~dst:b g);
  check_raises_invalid "self loop" (fun () -> G.add_edge ~src:a ~dst:a g);
  check_raises_invalid "duplicate" (fun () -> G.add_edge ~src:a ~dst:b g);
  check_raises_invalid "negative delta" (fun () ->
      G.add_edge ~delta:(-0.5) ~src:b ~dst:a g);
  check_raises_invalid "zero bandwidth" (fun () ->
      G.add_edge ~bandwidth:0. ~src:b ~dst:a g)

let mutation () =
  let g, _, b, c = chain () in
  let g = G.update_service g b (fun _ -> svc 7e8) in
  check_close "service replaced" 7e8 (G.vertex g b).service.throughput;
  let g = G.update_service g b (fun s -> { s with G.queue_capacity = 5 }) in
  Alcotest.(check int) "service updated" 5 (G.vertex g b).service.queue_capacity;
  let g = G.set_edge_params ~delta:0.5 ~src:b ~dst:c g in
  (match G.edge g ~src:b ~dst:c with
  | Some e ->
    check_close "delta changed" 0.5 e.delta;
    check_close "beta preserved" 0.25 e.beta
  | None -> Alcotest.fail "edge vanished");
  check_raises_invalid "set params on missing edge" (fun () ->
      G.set_edge_params ~delta:1. ~src:c ~dst:b g)

let remove_edge () =
  let g, a, b, _ = chain () in
  let g' = G.remove_edge ~src:a ~dst:b g in
  Alcotest.(check int) "one edge left" 1 (List.length (G.edges g'));
  check_raises_invalid "double removal" (fun () -> G.remove_edge ~src:a ~dst:b g')

let fanout () =
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc 1e9) g in
  let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc 1e9) g in
  let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc 1e9) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc 1e9) g in
  let g = G.add_edge ~delta:0.6 ~alpha:0.6 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.4 ~alpha:0.4 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.6 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.4 ~src:y ~dst:e g in
  (g, i, x, y, e)

let scale_out_split () =
  let g, i, x, y, _ = fanout () in
  let g = G.scale_out_split g i [ 1.; 3. ] in
  (match (G.edge g ~src:i ~dst:x, G.edge g ~src:i ~dst:y) with
  | Some ex, Some ey ->
    check_close "new delta x" 0.25 ex.delta;
    check_close "new delta y" 0.75 ey.delta;
    (* alpha stays proportional to delta per edge *)
    check_close "alpha x rescaled" 0.25 ex.alpha;
    check_close "alpha y rescaled" 0.75 ey.alpha
  | _ -> Alcotest.fail "edges missing");
  check_raises_invalid "length mismatch" (fun () -> G.scale_out_split g i [ 1. ]);
  check_raises_invalid "all-zero split" (fun () -> G.scale_out_split g i [ 0.; 0. ]);
  check_raises_invalid "negative split" (fun () -> G.scale_out_split g i [ -1.; 2. ])

(* Degenerate fraction vectors must be rejected up front — an all-zero
   or NaN list would otherwise divide by total_fraction = 0 (or
   propagate NaN through it) and silently poison every out-edge's
   δ/α/β. The error must name the vertex so feedback-split callers can
   locate the offending split. *)
let scale_out_split_degenerate () =
  let g, i, _, _, _ = fanout () in
  let rejects label fractions =
    match G.scale_out_split g i fractions with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument msg ->
      if not (contains_substring msg "in") then
        Alcotest.failf "%s: error %S does not name the vertex" label msg
  in
  rejects "all-zero" [ 0.; 0. ];
  rejects "nan fraction" [ Float.nan; 1. ];
  rejects "all-nan" [ Float.nan; Float.nan ];
  rejects "infinite fraction" [ infinity; 1. ];
  rejects "negative infinity" [ neg_infinity; 1. ];
  (* a single zero inside an otherwise-positive vector stays legal *)
  let g' = G.scale_out_split g i [ 0.; 1. ] in
  match (G.edge g' ~src:i ~dst:1, G.edge g' ~src:i ~dst:2) with
  | Some ex, Some ey ->
    check_close "zeroed edge" 0. ex.delta;
    check_close "kept edge gets the whole delta" 1. ey.delta
  | _ -> Alcotest.fail "edges missing"

let topology () =
  let g, a, b, c = chain () in
  (match G.topological_order g with
  | Some order -> Alcotest.(check (list int)) "topo order" [ a; b; c ] order
  | None -> Alcotest.fail "chain is a DAG");
  Alcotest.(check bool) "validates as a DAG" true (Result.is_ok (G.validate g))

let cycle_detection () =
  let g = G.empty in
  let g, a = G.add_vertex ~kind:G.Ip ~label:"a" ~service:(svc 1.) g in
  let g, b = G.add_vertex ~kind:G.Ip ~label:"b" ~service:(svc 1.) g in
  let g = G.add_edge ~src:a ~dst:b g in
  let g = G.add_edge ~src:b ~dst:a g in
  match G.validate g with
  | Error errors ->
    Alcotest.(check bool) "cycle detected" true (List.mem "graph has a cycle" errors)
  | Ok () -> Alcotest.fail "a cycle must not validate"

let paths_enumeration () =
  let g, i, x, y, e = fanout () in
  let paths, status = G.paths_capped g in
  Alcotest.(check bool) "complete" true (status = `Complete);
  Alcotest.(check int) "two paths" 2 (List.length paths);
  Alcotest.(check bool) "path via x" true (List.mem [ i; x; e ] paths);
  Alcotest.(check bool) "path via y" true (List.mem [ i; y; e ] paths)

let paths_limit () =
  (* A diamond ladder has exponentially many paths; the limit fires. *)
  let g = ref G.empty in
  let add kind label =
    let g', id = G.add_vertex ~kind ~label ~service:(svc 1e9) !g in
    g := g';
    id
  in
  let first = add G.Ingress "in" in
  let prev = ref first in
  for layer = 1 to 16 do
    let x = add G.Ip (Printf.sprintf "x%d" layer) in
    let y = add G.Ip (Printf.sprintf "y%d" layer) in
    let join = add G.Ip (Printf.sprintf "j%d" layer) in
    g := G.add_edge ~delta:0.5 ~src:!prev ~dst:x !g;
    g := G.add_edge ~delta:0.5 ~src:!prev ~dst:y !g;
    g := G.add_edge ~delta:0.5 ~src:x ~dst:join !g;
    g := G.add_edge ~delta:0.5 ~src:y ~dst:join !g;
    prev := join
  done;
  let out = add G.Egress "out" in
  g := G.add_edge ~src:!prev ~dst:out !g;
  let default, status = G.paths_capped !g in
  Alcotest.(check int) "path explosion guarded" 10_000 (List.length default);
  Alcotest.(check bool) "default limit truncates" true (status = `Truncated);
  (* The enumeration degrades to the first [limit] paths. *)
  let capped, status = G.paths_capped ~limit:100 !g in
  Alcotest.(check int) "capped at limit" 100 (List.length capped);
  Alcotest.(check bool) "flagged truncated" true (status = `Truncated);
  let small, status = G.paths_capped ~limit:1_000_000 !g in
  Alcotest.(check int) "complete below limit" 65536 (List.length small);
  Alcotest.(check bool) "flagged complete" true (status = `Complete)

let validation () =
  let g, _, _, _ = chain () in
  Alcotest.(check bool) "valid chain" true (Result.is_ok (G.validate g));
  (* no ingress *)
  let g2 = G.empty in
  let g2, _ = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc 1.) g2 in
  Alcotest.(check bool) "missing ingress" true (Result.is_error (G.validate g2));
  (* no egress *)
  let g4 = G.empty in
  let g4, _ = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc 1.) g4 in
  Alcotest.(check bool) "missing egress" true
    (G.validate g4 = Error [ "graph has no egress vertex" ]);
  (* orphan IP vertex *)
  let g3, _, _, _ = chain () in
  let g3, _ = G.add_vertex ~kind:G.Ip ~label:"orphan" ~service:(svc 1.) g3 in
  (match G.validate g3 with
  | Error errors ->
    Alcotest.(check bool)
      "mentions orphan" true
      (List.exists (fun e -> String.length e > 0) errors);
    Alcotest.(check int) "unreachable and co-unreachable" 2 (List.length errors)
  | Ok () -> Alcotest.fail "orphan should invalidate")

let pretty_printer_runs () =
  let g, _, _, _ = chain () in
  let rendered = Fmt.str "%a" G.pp g in
  Alcotest.(check bool) "mentions labels" true
    (contains_substring rendered "work")

(* Properties *)

let arbitrary_split =
  QCheck.(list_of_size (Gen.int_range 2 6) (float_range 0.1 10.))

let properties =
  [
    prop "scale_out_split preserves total delta" arbitrary_split (fun fractions ->
        let g, i, _, _, _ = fanout () in
        let k = List.length (G.out_edges g i) in
        QCheck.assume (List.length fractions >= k);
        let fractions = List.filteri (fun idx _ -> idx < k) fractions in
        let total_before =
          List.fold_left (fun acc (e : G.edge) -> acc +. e.delta) 0. (G.out_edges g i)
        in
        let g = G.scale_out_split g i fractions in
        let total_after =
          List.fold_left (fun acc (e : G.edge) -> acc +. e.delta) 0. (G.out_edges g i)
        in
        abs_float (total_before -. total_after) < 1e-9);
    prop "topological order respects every edge"
      QCheck.(int_range 2 10)
      (fun n ->
        (* random-ish DAG: edges only forward by construction *)
        let g = ref G.empty in
        let ids =
          List.init n (fun i ->
              let kind =
                if i = 0 then G.Ingress else if i = n - 1 then G.Egress else G.Ip
              in
              let g', id =
                G.add_vertex ~kind ~label:(string_of_int i) ~service:(svc 1e9) !g
              in
              g := g';
              id)
        in
        List.iteri
          (fun i id ->
            if i + 1 < n then
              g := G.add_edge ~delta:1. ~src:id ~dst:(List.nth ids (i + 1)) !g)
          ids;
        match G.topological_order !g with
        | None -> false
        | Some order ->
          let position = Hashtbl.create 16 in
          List.iteri (fun i id -> Hashtbl.replace position id i) order;
          List.for_all
            (fun (e : G.edge) -> Hashtbl.find position e.src < Hashtbl.find position e.dst)
            (G.edges !g));
  ]

let suite =
  [
    quick "construction" construction;
    quick "accessors" accessors;
    quick "service validation" service_validation;
    quick "edge validation" edge_validation;
    quick "functional mutation" mutation;
    quick "remove edge" remove_edge;
    quick "scale_out_split" scale_out_split;
    quick "scale_out_split degenerate fractions" scale_out_split_degenerate;
    quick "topological order" topology;
    quick "cycle detection" cycle_detection;
    quick "path enumeration" paths_enumeration;
    quick "path explosion guard" paths_limit;
    quick "validation" validation;
    quick "pretty printer" pretty_printer_runs;
  ]
  @ properties
