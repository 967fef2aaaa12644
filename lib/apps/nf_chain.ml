module B = Lognic_devices.Bluefield2
module U = Lognic.Units

type scheme = Arm_only | Accel_only | Lognic_opt

let scheme_name = function
  | Arm_only -> "ARM-only"
  | Accel_only -> "Accelerator-only"
  | Lognic_opt -> "LogNIC-opt"

let capacity placement_of ~packet_size =
  let g = B.chain_graph ~placement_of ~packet_size () in
  Lognic.Throughput.capacity g ~hw:B.hardware

let opt_placement ~packet_size =
  let best = ref None in
  List.iter
    (fun placement_of ->
      let cap = capacity placement_of ~packet_size in
      match !best with
      | Some (_, best_cap) when best_cap >= cap -> ()
      | _ -> best := Some (placement_of, cap))
    (B.placements ());
  match !best with Some (p, _) -> p | None -> assert false

(* [Lognic_opt] searches all placements through the model. *)
let placement_for scheme ~packet_size =
  match scheme with
  | Arm_only -> fun _ -> B.On_arm
  | Accel_only ->
    fun nf -> if B.has_accelerator nf then B.On_accel else B.On_arm
  | Lognic_opt -> opt_placement ~packet_size

let describe_placement ~packet_size =
  let placement = opt_placement ~packet_size in
  String.concat " "
    (List.map
       (fun nf ->
         Printf.sprintf "%s:%s" (B.nf_name nf)
           (match placement nf with B.On_arm -> "arm" | B.On_accel -> "accel"))
       B.chain)

type outcome = {
  scheme : scheme;
  packet_size : float;
  throughput : float;
  latency : float;
}

let evaluate ?(load = 0.9) ~packet_size scheme =
  let schemes = [ Arm_only; Accel_only; Lognic_opt ] in
  let graphs =
    List.map
      (fun s -> B.chain_graph ~placement_of:(placement_for s ~packet_size) ~packet_size ())
      schemes
  in
  let capacities =
    List.map (fun g -> Lognic.Throughput.capacity g ~hw:B.hardware) graphs
  in
  let best = List.fold_left Float.max 0. capacities in
  let weakest = List.fold_left Float.min infinity capacities in
  let g =
    B.chain_graph ~placement_of:(placement_for scheme ~packet_size) ~packet_size ()
  in
  let saturating = Float.min (1.05 *. best) B.line_rate in
  let saturated =
    Lognic.Throughput.evaluate g ~hw:B.hardware
      ~traffic:(Lognic.Traffic.make ~rate:saturating ~packet_size)
  in
  let latency_rate = Float.min (load *. weakest) (0.95 *. B.line_rate) in
  let latency_report =
    Lognic.Latency.evaluate ~model:Lognic.Latency.Mmcn_model g ~hw:B.hardware
      ~traffic:(Lognic.Traffic.make ~rate:latency_rate ~packet_size)
  in
  {
    scheme;
    packet_size;
    throughput = saturated.Lognic.Throughput.attained;
    latency = latency_report.Lognic.Latency.mean;
  }

let sweep ?load ?sizes () =
  let sizes = Option.value sizes ~default:[ 64.; 128.; 256.; 512.; 1024.; U.mtu ] in
  List.concat_map
    (fun packet_size ->
      List.map
        (fun scheme -> evaluate ?load ~packet_size scheme)
        [ Arm_only; Accel_only; Lognic_opt ])
    sizes
