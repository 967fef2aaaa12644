module G = Lognic.Graph
module U = Lognic.Units

type nf = Fw | Lb | Dpi | Nat | Pe
type placement = On_arm | On_accel

let nf_name = function
  | Fw -> "FW"
  | Lb -> "LB"
  | Dpi -> "DPI"
  | Nat -> "NAT"
  | Pe -> "PE"

let chain = [ Fw; Lb; Dpi; Nat; Pe ]
let line_rate = 100. *. U.gbps
let total_cores = 8
let core_frequency = 2.5e9

let hardware =
  (* The ARM cluster's shared LLC and the PCIe DMA engines are the
     cross-graph choke points the contention layer models. *)
  Lognic.Params.with_resources
    (Lognic.Params.hardware ~bw_interface:(200. *. U.gbps)
       ~bw_memory:(120. *. U.gbps))
    [ ("llc", 60. *. U.gbps); ("pcie-dma", 128.e9) ]

let has_accelerator = function Dpi -> false | Fw | Lb | Nat | Pe -> true

(* Software costs: fixed per-packet cycles plus per-byte cycles. DPI and
   PE are byte-heavy (pattern matching, encryption); the others are
   header-dominated. *)
let arm_cost = function
  | Fw -> (300., 0.25)
  | Lb -> (250., 0.15)
  | Dpi -> (800., 2.5)
  | Nat -> (280., 0.2)
  | Pe -> (400., 3.5)

let arm_cycles nf ~packet_size =
  let per_packet, per_byte = arm_cost nf in
  per_packet +. (per_byte *. packet_size)

let require_accel nf =
  if not (has_accelerator nf) then
    invalid_arg (nf_name nf ^ " has no hardware accelerator")

(* (packet rate, byte rate, issue cycles, transfer overhead) *)
let accel_spec = function
  | Fw -> (12e6, 80. *. U.gbps, 120., 1.0e-6)
  | Lb -> (15e6, 90. *. U.gbps, 100., 0.8e-6)
  | Nat -> (12e6, 80. *. U.gbps, 120., 1.0e-6)
  | Pe -> (8e6, 60. *. U.gbps, 150., 1.2e-6)
  | Dpi -> invalid_arg "DPI has no hardware accelerator"

(* ARM cycles to drive one accelerator call (submission + completion
   shepherding). Raises [Invalid_argument] for DPI. *)
let accel_issue_cycles nf =
  require_accel nf;
  let _, _, issue, _ = accel_spec nf in
  issue

(* Bytes/s. Raises [Invalid_argument] for DPI. *)
let accel_rate nf ~packet_size =
  require_accel nf;
  let pps, bytes, _, _ = accel_spec nf in
  Float.min (pps *. packet_size) bytes

(* O — seconds of computation-transfer overhead per call. *)
let accel_overhead nf =
  require_accel nf;
  let _, _, _, o = accel_spec nf in
  o

(* Interface fraction charged per direction of an accelerator hop. *)
let crossing_alpha = 0.9

let placements () =
  (* Every subset of the four accelerable NFs. *)
  let accelerable = [ Fw; Lb; Nat; Pe ] in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let tails = subsets rest in
      tails @ List.map (fun s -> x :: s) tails
  in
  List.map
    (fun on_accel nf ->
      if has_accelerator nf && List.mem nf on_accel then On_accel else On_arm)
    (subsets accelerable)

let chain_graph ?(cores = total_cores) ~placement_of ~packet_size () =
  if cores < 1 || cores > total_cores then
    invalid_arg "Bluefield2.chain_graph: cores out of range";
  let cluster_cycles = float_of_int cores *. core_frequency in
  (* Core-side cost per packet of each chain stage: the NF itself when
     on ARM, the shepherd cost when its work is offloaded. *)
  let core_cost nf =
    match placement_of nf with
    | On_arm -> arm_cycles nf ~packet_size
    | On_accel -> accel_issue_cycles nf
  in
  let total_core_cost = List.fold_left (fun acc nf -> acc +. core_cost nf) 0. chain in
  (* Each core-side stage is a virtual IP of the cluster with gamma
     proportional to its cost, so P_eff is identical across stages and
     equals the cluster's run-to-completion rate for the whole chain. *)
  let core_service nf ~overhead =
    let cost = core_cost nf in
    let gamma = Float.max 1e-6 (cost /. total_core_cost) in
    let full_rate = cluster_cycles /. cost *. packet_size in
    (* D tracks the stage's share of physical cores so per-request
       service time stays one core's stage time (Eq 7). *)
    let engines = max 1 (int_of_float (Float.round (gamma *. float_of_int cores))) in
    G.service ~throughput:full_rate ~partition:gamma ~parallelism:engines
      ~overhead ~queue_capacity:64 ()
  in
  let g = G.empty in
  let port = G.service ~throughput:line_rate ~queue_capacity:256 () in
  let g, ingress = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:port g in
  let add_stage (g, prev, prev_alpha) nf =
    match placement_of nf with
    | On_arm ->
      let g, v =
        G.add_vertex ~kind:G.Ip
          ~label:(nf_name nf ^ ".arm")
          ~service:(core_service nf ~overhead:0.)
          g
      in
      let g = G.add_edge ~delta:1. ~alpha:prev_alpha ~src:prev ~dst:v g in
      (g, v, 0.)
    | On_accel ->
      let g, shepherd =
        G.add_vertex ~kind:G.Ip
          ~label:(nf_name nf ^ ".issue")
          ~service:(core_service nf ~overhead:(accel_overhead nf))
          g
      in
      let accel_service =
        G.service
          ~throughput:(accel_rate nf ~packet_size)
          ~parallelism:4 ~queue_capacity:32 ()
      in
      let g, accel =
        G.add_vertex ~kind:G.Ip
          ~label:(nf_name nf ^ ".accel")
          ~service:accel_service g
      in
      let g = G.add_edge ~delta:1. ~alpha:prev_alpha ~src:prev ~dst:shepherd g in
      let g =
        G.add_edge ~delta:1. ~alpha:crossing_alpha ~src:shepherd ~dst:accel g
      in
      (* The return crossing is charged on the accelerator's out-edge. *)
      (g, accel, crossing_alpha)
  in
  let g, last, last_alpha = List.fold_left add_stage (g, ingress, 0.) chain in
  let g, egress = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:port g in
  let g = G.add_edge ~delta:1. ~alpha:last_alpha ~src:last ~dst:egress g in
  g
