(* QCheck generators for random-but-valid LogNIC inputs: execution
   graphs, hardware parameters, traffic, simulator configs, fault
   plans. Every float is drawn from a short-decimal-literal list, so a
   generated value survives the DSL printer's [%g] rendering and
   [Quantity.parse] bit-exactly — the round-trip property can demand
   string equality instead of approximate value equality. *)

module G = Lognic.Graph
module QGen = QCheck.Gen

type scenario = {
  label : string;
  graph : G.t;
  hw : Lognic.Params.hardware;
  mix : Lognic.Traffic.mix;
}

(* ---- scalar pools ---------------------------------------------------- *)

let throughputs = [ 1e9; 2e9; 4e9; 5e9 ]
let bandwidths = [ 1.25e9; 1e10; 1.25e10 ]
let packet_sizes = [ 64.; 256.; 1000.; 1500. ]
let deltas = [ 0.5; 1.; 2. ]
let alphas = [ 0.; 0.5; 1. ]
let overheads = [ 0.; 1e-6; 2e-6 ]
let accels = [ 0.5; 1.; 2. ]
let partitions = [ 0.5; 1. ]

let service st =
  G.service
    ~throughput:(QGen.oneofl throughputs st)
    ~parallelism:(QGen.int_range 1 4 st)
    ~queue_capacity:(QGen.int_range 4 64 st)
    ~overhead:(QGen.oneofl overheads st)
    ~accel:(QGen.oneofl accels st)
    ~partition:(QGen.oneofl partitions st)
    ()

(* A restrained service for properties that need the sim to agree with
   the closed-form model sharply: defaults that keep per-node service
   time well under the paced inter-arrival gap at the rates below. *)
let tame_service st =
  G.service
    ~throughput:(QGen.oneofl throughputs st)
    ~parallelism:(QGen.int_range 1 2 st)
    ~queue_capacity:(QGen.int_range 16 64 st)
    ~overhead:(QGen.oneofl overheads st)
    ()

(* ---- graphs ---------------------------------------------------------- *)

(* ingress -> ip_1 -> ... -> ip_n -> egress, every edge delta = 1 so
   reach probabilities and W-fractions are trivially 1. *)
let chain_graph ?(edge_alpha = true) () st =
  let n = QGen.int_range 1 3 st in
  let g, ingress =
    G.add_vertex ~kind:G.Ingress ~label:"in" ~service:G.default_service G.empty
  in
  let g, last =
    List.fold_left
      (fun (g, prev) i ->
        let g, id =
          G.add_vertex ~kind:G.Ip
            ~label:(Printf.sprintf "ip%d" i)
            ~service:(tame_service st) g
        in
        let alpha = if edge_alpha then QGen.oneofl alphas st else 0. in
        let beta = if edge_alpha then QGen.oneofl alphas st else 0. in
        (G.add_edge ~delta:1. ~alpha ~beta ~src:prev ~dst:id g, id))
      (g, ingress)
      (List.init n (fun i -> i))
  in
  let g, egress =
    G.add_vertex ~kind:G.Egress ~label:"out" ~service:G.default_service g
  in
  G.add_edge ~delta:1. ~src:last ~dst:egress g

(* A single-IP chain with no wire or overhead terms: end-to-end latency
   is exactly the node sojourn, which is what Little's-law and
   queueing-limit properties need to isolate. *)
let single_node_graph ~parallelism ~queue_capacity ~throughput =
  let g, ingress =
    G.add_vertex ~kind:G.Ingress ~label:"in" ~service:G.default_service G.empty
  in
  let g, ip =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput ~parallelism ~queue_capacity ())
      g
  in
  let g, egress =
    G.add_vertex ~kind:G.Egress ~label:"out" ~service:G.default_service g
  in
  let g = G.add_edge ~delta:1. ~src:ingress ~dst:ip g in
  G.add_edge ~delta:1. ~src:ip ~dst:egress g

(* Layered DAG: 1-3 stages of width 1-2, consecutive stages completely
   connected — every ingress->egress walk exists, so validation always
   passes, while fan-out/fan-in still exercises routing, per-edge
   scaling, and multi-path telemetry. *)
let layered_graph st =
  let stages = QGen.int_range 1 3 st in
  let g, ingress =
    G.add_vertex ~kind:G.Ingress ~label:"in" ~service:G.default_service G.empty
  in
  let g, layers, _ =
    List.fold_left
      (fun (g, prev_layer, idx) _ ->
        let width = QGen.int_range 1 2 st in
        let g, layer =
          List.fold_left
            (fun (g, acc) w ->
              let g, id =
                G.add_vertex ~kind:G.Ip
                  ~label:(Printf.sprintf "ip%d_%d" idx w)
                  ~service:(service st) g
              in
              (g, id :: acc))
            (g, [])
            (List.init width (fun w -> w))
        in
        let layer = List.rev layer in
        let g =
          List.fold_left
            (fun g src ->
              List.fold_left
                (fun g dst ->
                  G.add_edge
                    ~delta:(QGen.oneofl deltas st)
                    ~alpha:(QGen.oneofl alphas st)
                    ~beta:(QGen.oneofl alphas st)
                    ~src ~dst g)
                g layer)
            g prev_layer
        in
        (g, layer, idx + 1))
      (g, [ ingress ], 0)
      (List.init stages (fun s -> s))
  in
  let g, egress =
    G.add_vertex ~kind:G.Egress ~label:"out" ~service:G.default_service g
  in
  List.fold_left
    (fun g src -> G.add_edge ~delta:1. ~src ~dst:egress g)
    g layers

(* ---- hardware and traffic ------------------------------------------- *)

let hardware st =
  Lognic.Params.hardware
    ~bw_interface:(QGen.oneofl bandwidths st)
    ~bw_memory:(QGen.oneofl bandwidths st)

let traffic ?(rates = [ 1e7; 2.5e7; 5e7 ]) () st =
  Lognic.Traffic.make ~rate:(QGen.oneofl rates st)
    ~packet_size:(QGen.oneofl packet_sizes st)

let mix ?rates () st =
  let classes = QGen.int_range 1 2 st in
  Lognic.Traffic.mix
    (List.init classes (fun _ -> (traffic ?rates () st, QGen.oneofl [ 0.5; 1.; 2. ] st)))

(* ---- scenarios ------------------------------------------------------- *)

(* Low-load chain: the sharp model-vs-sim regime. *)
let low_load_chain st =
  {
    label = "low-load-chain";
    graph = chain_graph () st;
    hw = hardware st;
    mix = [ (traffic () st, 1.) ];
  }

(* Anything-goes: arbitrary layered graph under light-to-overload
   traffic; the regime for invariant-conformance fuzzing. *)
let wild st =
  {
    label = "wild";
    graph = layered_graph st;
    hw = hardware st;
    mix = mix ~rates:[ 2.5e7; 2.5e8; 1e9; 4e9 ] () st;
  }

(* Two classes at a low fixed per-class rate on a tame chain: combined
   packet gaps stay well above the largest service time, so per-class
   model-vs-sim latency agreement is sharp (the mix analogue of
   [low_load_chain]). *)
let low_load_mix_chain st =
  let cls () =
    Lognic.Traffic.make ~rate:1e7 ~packet_size:(QGen.oneofl packet_sizes st)
  in
  {
    label = "low-load-mix-chain";
    graph = chain_graph () st;
    hw = hardware st;
    mix = Lognic.Traffic.mix [ (cls (), 1.); (cls (), 1.) ];
  }

let arrival st =
  QGen.oneofl
    [
      Lognic_sim.Traffic_gen.Poisson;
      Lognic_sim.Traffic_gen.Paced;
      Lognic_sim.Traffic_gen.Bursty { burstiness = 4.; mean_on = 1e-4 };
    ]
    st

let service_dist st =
  QGen.oneofl [ Lognic_sim.Ip_node.Exponential; Lognic_sim.Ip_node.Deterministic ] st

(* A small fault plan whose targets exist in every generated graph:
   the shared media and the drop-burst need no entity at all, and an
   [ip0_0] vertex exists in every layered graph. *)
let fault_plan ~duration st =
  match QGen.int_range 0 3 st with
  | 0 -> Lognic_sim.Faults.empty
  | 1 ->
    [
      Lognic_sim.Faults.drop_burst ~probability:0.3 ~start:(duration /. 4.)
        ~stop:(duration /. 2.);
    ]
  | 2 ->
    [
      Lognic_sim.Faults.medium_degraded
        ~medium:(Lognic.Params.medium_name Interface) ~factor:0.5
        ~start:(duration /. 4.)
        ~stop:(3. *. duration /. 4.);
    ]
  | _ ->
    [
      Lognic_sim.Faults.queue_shrunk ~vertex:"ip0_0" ~capacity:2
        ~start:(duration /. 4.)
        ~stop:(duration /. 2.);
    ]

(* ---- tenants --------------------------------------------------------- *)

let tenant_names =
  [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot"; "golf"; "hotel" |]

(* 2-6 distinct tenants with small random weights/shares and an
   occasional SLO, returned in a {e random} order — never name-sorted —
   so order-invariance properties exercise the canonicalization in
   [Tenant.set] rather than a pre-sorted fixed point. Shares come from
   the short-decimal pool for the same bit-exactness reason as every
   other float here. *)
let tenant_specs st =
  let keyed =
    Array.map (fun name -> (QGen.int_range 0 1_000_000 st, name)) tenant_names
  in
  Array.sort compare keyed;
  let n = QGen.int_range 2 6 st in
  List.init n (fun i ->
      let _, name = keyed.(i) in
      let weight = QGen.int_range 1 8 st in
      let share = QGen.oneofl [ 0.5; 1.; 2.; 4. ] st in
      let slo_p99 =
        if QGen.bool st then Some (QGen.oneofl [ 1e-3; 1e-2 ] st) else None
      in
      Lognic_sim.Tenant.spec ~weight ~share ?slo_p99 name)

(* ---- DSL documents --------------------------------------------------- *)

let document st =
  let graph =
    if QGen.bool st then layered_graph st else chain_graph () st
  in
  {
    Lognic_dsl.Parser.graph;
    hardware = (if QGen.bool st then Some (hardware st) else None);
    traffic = (if QGen.bool st then Some (traffic ~rates:[ 1e8; 2.5e8 ] () st) else None);
    mix = (if QGen.bool st then Some (mix ~rates:[ 1e8; 2.5e8 ] () st) else None);
  }
