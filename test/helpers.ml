(* Shared assertion helpers for the test suites. *)

let check_close ?(tol = 1e-9) msg expected actual =
  if
    not
      (Float.is_finite actual && Float.is_finite expected
       && abs_float (actual -. expected)
          <= tol *. Float.max 1. (abs_float expected))
  then
    Alcotest.failf "%s: expected %.9g, got %.9g (tol %g)" msg expected actual tol

let check_within ~pct msg expected actual =
  (* relative agreement within pct percent *)
  if expected = 0. then check_close msg expected actual
  else begin
    let rel = abs_float (actual -. expected) /. abs_float expected in
    if rel > pct /. 100. then
      Alcotest.failf "%s: expected %.6g within %.1f%%, got %.6g (off by %.2f%%)"
        msg expected pct actual (100. *. rel)
  end

let check_raises_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* The suites' shared model: in (25 Gbps) -> ip -> out (25 Gbps) on
   50/60 Gbps interface/memory hardware. Both edges carry the whole load
   and [alpha] of it over the interface; only the ip's input edge moves
   [beta] of its bytes over memory. The ip's unset knobs keep
   [Graph.service]'s defaults. *)
let hw =
  Lognic.Params.hardware
    ~bw_interface:(50. *. Lognic.Units.gbps)
    ~bw_memory:(60. *. Lognic.Units.gbps)

let pipeline ?parallelism ?(queue = 32) ?(ip_rate = 4. *. Lognic.Units.gbps)
    ?overhead ?(alpha = 1.) ?(beta = 0.) () =
  let module G = Lognic.Graph in
  let port = G.service ~throughput:(25. *. Lognic.Units.gbps) () in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:port G.empty in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:
        (G.service ~throughput:ip_rate ?parallelism ~queue_capacity:queue
           ?overhead ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:port g in
  let g = G.add_edge ~delta:1. ~alpha ~beta ~src:i ~dst:w g in
  G.add_edge ~delta:1. ~alpha ~src:w ~dst:e g

let prop name ?(count = 200) arbitrary predicate =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck.Test.make ~name ~count arbitrary predicate)

(* A report's JSON read back through [Telemetry.Json]: [json_reparse]
   prints and parses it, and the getters fetch the value at a key path,
   failing the test on a missing key or a wrong type. *)
module Json = Lognic_sim.Telemetry.Json

let json_reparse j =
  match Json.of_string (Json.to_string j) with
  | Ok j -> j
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e

let rec json_get j = function
  | [] -> j
  | k :: ks ->
    (match Json.member k j with
    | Some v -> json_get v ks
    | None -> Alcotest.failf "missing key %S" k)

let json_num j path =
  match json_get j path with
  | Json.Num x -> x
  | _ -> Alcotest.failf "%s is not a number" (String.concat "." path)

let json_arr j path =
  match json_get j path with
  | Json.Arr xs -> xs
  | _ -> Alcotest.failf "%s is not an array" (String.concat "." path)
