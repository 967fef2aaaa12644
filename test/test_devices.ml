(* Tests for the device models: parameter sanity and the figure-pinning
   relationships reverse-engineered from the paper. *)

open Helpers
module U = Lognic.Units
module G = Lognic.Graph
module D = Lognic_devices

(* Accelerator catalog *)

let accel_fig5_ratios () =
  (* Fig 5's 16KB-granularity percentages pin the peak rates: the
     medium's op ceiling at 16KB over the peak must give the paper's
     13.6 / 17.3 / 21.2 / 25.8 numbers. *)
  let ratio (spec : D.Accel_spec.t) =
    let medium_bw =
      match spec.medium with
      | D.Accel_spec.Cmi -> D.Liquidio.hardware.Lognic.Params.bw_memory
      | D.Accel_spec.Io_interconnect -> D.Liquidio.hardware.Lognic.Params.bw_interface
    in
    medium_bw /. 16384. /. spec.peak_ops
  in
  check_within ~pct:2. "CRC 13.6%" 0.136 (ratio D.Accel_spec.crc);
  check_within ~pct:2. "3DES 17.3%" 0.173 (ratio D.Accel_spec.des3);
  check_within ~pct:2. "MD5 21.2%" 0.212 (ratio D.Accel_spec.md5);
  check_within ~pct:2. "HFA 25.8%" 0.258 (ratio D.Accel_spec.hfa)

let accel_media_assignment () =
  Alcotest.(check bool) "crypto on CMI" true (D.Accel_spec.md5.medium = D.Accel_spec.Cmi);
  Alcotest.(check bool)
    "HFA off-chip" true
    (D.Accel_spec.hfa.medium = D.Accel_spec.Io_interconnect)

(* LiquidIO *)

let liquidio_constants () =
  check_close "25GbE" (25. *. U.gbps) D.Liquidio.line_rate;
  Alcotest.(check int) "16 cores" 16 D.Liquidio.total_cores;
  check_close "CMI 50G" (50. *. U.gbps) D.Liquidio.hardware.Lognic.Params.bw_memory;
  check_close "I/O fabric 40G" (40. *. U.gbps) D.Liquidio.hardware.Lognic.Params.bw_interface

let liquidio_graph_shape () =
  let g =
    D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5 ~packet_size:U.mtu ()
  in
  Alcotest.(check bool) "valid" true (Result.is_ok (G.validate g));
  Alcotest.(check int) "5 vertices (rx, ip1, ip2, ip3, tx)" 5 (G.vertex_count g);
  (* the accelerator hop uses the engine's medium *)
  let accel = Option.get (G.find_vertex g ~label:"ip2.MD5") in
  let fetch = List.hd (G.in_edges g accel.id) in
  Alcotest.(check bool) "MD5 fetch crosses CMI (beta)" true (fetch.beta > 0.);
  check_raises_invalid "core range" (fun () ->
      D.Liquidio.inline_accel_graph ~cores:0 ~spec:D.Accel_spec.md5
        ~packet_size:U.mtu ())

let liquidio_microservice_rate () =
  check_close "1.5GHz core, 1500 cycles -> 1 MRPS" 1e6
    (D.Liquidio.microservice_core_rate ~cost_cycles:1500. ~cores:1);
  check_close "scales with cores" 4e6
    (D.Liquidio.microservice_core_rate ~cost_cycles:1500. ~cores:4);
  check_raises_invalid "zero cost" (fun () ->
      D.Liquidio.microservice_core_rate ~cost_cycles:0. ~cores:1)

(* SSD *)

let ssd_effective_profiles () =
  let eff io gc = D.Ssd.effective D.Ssd.default ~io ~gc in
  let rrd = eff D.Ssd.rrd_4k D.Ssd.Gc_none in
  (* 4K reads: ~85us + transfer; capacity around 2.5-3 GB/s *)
  Alcotest.(check bool)
    "4K read service in the 90us ballpark" true
    (rrd.service_time > 80e-6 && rrd.service_time < 110e-6);
  Alcotest.(check bool)
    "4K read capacity 2-3.5 GB/s" true
    (rrd.capacity > 2e9 && rrd.capacity < 3.5e9);
  (* 128K reads are bus-bound *)
  let big = eff D.Ssd.rrd_128k D.Ssd.Gc_none in
  check_close "128K capacity = internal bus" D.Ssd.default.internal_bandwidth
    big.capacity;
  (* sequential writes never pay GC *)
  let swr_frag = eff D.Ssd.swr_4k D.Ssd.Gc_realistic in
  let swr_clean = eff D.Ssd.swr_4k D.Ssd.Gc_none in
  check_close "sequential writes immune to GC" swr_clean.service_time
    swr_frag.service_time

let ssd_gc_modes_ordering () =
  let io = D.Ssd.mixed_4k ~read_fraction:0.5 in
  let cap gc = (D.Ssd.effective D.Ssd.default ~io ~gc).capacity in
  Alcotest.(check bool)
    "none >= realistic >= worst case" true
    (cap D.Ssd.Gc_none >= cap D.Ssd.Gc_realistic
    && cap D.Ssd.Gc_realistic >= cap D.Ssd.Gc_worst_case);
  (* pure reads: all modes agree *)
  let reads = D.Ssd.mixed_4k ~read_fraction:1. in
  check_close "reads unaffected by GC"
    (D.Ssd.effective D.Ssd.default ~io:reads ~gc:D.Ssd.Gc_none).capacity
    (D.Ssd.effective D.Ssd.default ~io:reads ~gc:D.Ssd.Gc_worst_case).capacity

let ssd_validation () =
  check_raises_invalid "read_fraction domain" (fun () ->
      D.Ssd.effective D.Ssd.default
        ~io:{ D.Ssd.rrd_4k with read_fraction = 1.5 }
        ~gc:D.Ssd.Gc_none)

(* Stingray *)

let stingray_graph () =
  let g = D.Stingray.nvme_of_graph ~io:D.Ssd.rrd_4k () in
  Alcotest.(check bool) "valid" true (Result.is_ok (G.validate g));
  Alcotest.(check int) "Figure 2c plus the SSD bus" 6 (G.vertex_count g);
  (* the drive's internal bus appears as its own serialization vertex *)
  let bus = Option.get (G.find_vertex g ~label:"ip2.ssd.bus") in
  let eff0 = D.Ssd.effective D.Ssd.default ~io:D.Ssd.rrd_4k ~gc:D.Ssd.Gc_none in
  check_close "bus rate" eff0.D.Ssd.bus_bandwidth bus.service.throughput;
  (* SSD capacity in the graph matches the effective model *)
  let eff = D.Ssd.effective D.Ssd.default ~io:D.Ssd.rrd_4k ~gc:D.Ssd.Gc_none in
  let traffic = Lognic.Traffic.make ~rate:(2. *. eff.capacity) ~packet_size:(4. *. U.kib) in
  let r = Lognic.Throughput.evaluate g ~hw:D.Stingray.hardware ~traffic in
  check_within ~pct:1. "SSD bounds the graph" eff.capacity r.capacity

(* BlueField-2 *)

let bluefield_placements_enumeration () =
  let placements = D.Bluefield2.placements () in
  Alcotest.(check int) "2^4 placements" 16 (List.length placements);
  (* DPI is pinned to ARM in all of them *)
  Alcotest.(check bool)
    "DPI always on ARM" true
    (List.for_all (fun p -> p D.Bluefield2.Dpi = D.Bluefield2.On_arm) placements)

(* The service of chain stage [label] at a packet size. *)
let bluefield_stage ~placement_of ~packet_size label =
  let g = D.Bluefield2.chain_graph ~placement_of ~packet_size () in
  (Option.get (G.find_vertex g ~label)).G.service

(* An ARM stage's rate is the cluster's cycles over the NF's cost, so
   its packet rate falls exactly as the cost per packet grows. *)
let bluefield_costs_monotone_in_size () =
  let arm_only _ = D.Bluefield2.On_arm in
  List.iter
    (fun nf ->
      let pps packet_size =
        (bluefield_stage ~placement_of:arm_only ~packet_size
           (D.Bluefield2.nf_name nf ^ ".arm"))
          .G.throughput /. packet_size
      in
      Alcotest.(check bool)
        (D.Bluefield2.nf_name nf ^ " cost grows with size")
        true
        (pps 1500. < pps 64.))
    D.Bluefield2.chain

let bluefield_accel_interface () =
  let accel_all _ = D.Bluefield2.On_accel in
  check_raises_invalid "DPI has no accel" (fun () ->
      D.Bluefield2.chain_graph ~placement_of:accel_all ~packet_size:64. ());
  let pe_offloaded nf = if nf = D.Bluefield2.Pe then D.Bluefield2.On_accel else D.Bluefield2.On_arm in
  let accel_rate packet_size =
    (bluefield_stage ~placement_of:pe_offloaded ~packet_size "PE.accel").G.throughput
  in
  Alcotest.(check bool)
    "PE accel byte-bound at MTU" true
    (accel_rate 1500. = 60. *. U.gbps);
  Alcotest.(check bool)
    "PE accel pps-bound at 64B" true
    (accel_rate 64. = 8e6 *. 64.)

let bluefield_graph_shapes () =
  let arm_only _ = D.Bluefield2.On_arm in
  let g = D.Bluefield2.chain_graph ~placement_of:arm_only ~packet_size:U.mtu () in
  Alcotest.(check bool) "arm-only valid" true (Result.is_ok (G.validate g));
  Alcotest.(check int) "arm-only: 7 vertices" 7 (G.vertex_count g);
  let accel nf =
    if D.Bluefield2.has_accelerator nf then D.Bluefield2.On_accel
    else D.Bluefield2.On_arm
  in
  let g2 = D.Bluefield2.chain_graph ~placement_of:accel ~packet_size:U.mtu () in
  Alcotest.(check bool) "accel-only valid" true (Result.is_ok (G.validate g2));
  (* 4 accelerated NFs contribute shepherd+accel pairs: 2 + 1 + 4*2 + ... *)
  Alcotest.(check int) "accel-only: 11 vertices" 11 (G.vertex_count g2)

let bluefield_rtc_capacity_invariant () =
  (* With cost-proportional gamma, the ARM-only chain capacity equals the
     cluster's run-to-completion rate regardless of the stage count. *)
  let g =
    D.Bluefield2.chain_graph ~placement_of:(fun _ -> D.Bluefield2.On_arm)
      ~packet_size:U.mtu ()
  in
  (* per-NF ARM cost (cycles per packet, cycles per byte): FW, LB, DPI,
     NAT, PE *)
  let arm_cost = [ (300., 0.25); (250., 0.15); (800., 2.5); (280., 0.2); (400., 3.5) ] in
  let total_cycles =
    List.fold_left
      (fun acc (per_packet, per_byte) -> acc +. per_packet +. (per_byte *. U.mtu))
      0. arm_cost
  in
  (* 8 A72 cores at 2.5 GHz *)
  let rtc_rate = 8. *. 2.5e9 /. total_cycles *. U.mtu in
  check_within ~pct:1. "chain capacity = RtC rate" rtc_rate
    (Lognic.Throughput.capacity g ~hw:D.Bluefield2.hardware)

(* PANIC *)

let panic_effective_rate () =
  (* single-size mix reduces to the plain rate formula *)
  let c_pp = 5e-9 and bw = 31.3e9 in
  let direct = 1500. /. (c_pp +. (1500. /. bw)) in
  check_close ~tol:1e-9 "single-size effective rate" direct
    (D.Panic.effective_unit_rate (c_pp, bw) ~sizes:[ (1500., 1.) ]);
  (* smaller harmonic mean -> lower rate *)
  let small = D.Panic.effective_unit_rate (c_pp, bw) ~sizes:[ (64., 1.); (512., 1.) ] in
  let large = D.Panic.effective_unit_rate (c_pp, bw) ~sizes:[ (1024., 1.); (1500., 1.) ] in
  Alcotest.(check bool) "small packets hurt more" true (small < large)

let panic_graphs_valid () =
  let check_valid name g =
    Alcotest.(check bool) (name ^ " valid") true (Result.is_ok (G.validate g))
  in
  check_valid "pipelined" (D.Panic.pipelined_graph ~sizes:[ (64., 1.); (512., 1.) ] ());
  check_valid "parallelized"
    (D.Panic.parallelized_graph ~split:(20., 40., 40.) ~packet_size:512. ());
  check_valid "hybrid"
    (D.Panic.hybrid_graph ~ip1_split:(50., 50.) ~packet_size:U.mtu ());
  check_raises_invalid "bad split" (fun () ->
      D.Panic.parallelized_graph ~split:(-1., 1., 1.) ~packet_size:512. ())

let panic_parallelized_capacity_ratio () =
  (* A2 (56 Gbps) fed f2 = 0.56 of the workload caps the graph at
     exactly 100 Gbps; A3 (24 Gbps at f3 = 0.24) ties, A1 has slack.
     Any deviation from the proportional split lowers the capacity. *)
  let cap split =
    Lognic.Throughput.capacity
      (D.Panic.parallelized_graph ~split ~packet_size:512. ())
      ~hw:D.Panic.hardware
  in
  check_within ~pct:1. "proportional split reaches 100G" (100. *. U.gbps)
    (cap (20., 56., 24.));
  Alcotest.(check bool)
    "skewed splits are worse" true
    (cap (20., 30., 50.) < cap (20., 56., 24.)
    && cap (20., 70., 10.) < cap (20., 56., 24.))

let panic_hybrid_parallelism_scales_ip4 () =
  let cap d =
    Lognic.Throughput.capacity
      (D.Panic.hybrid_graph ~ip4_parallelism:d ~ip1_split:(50., 50.) ~packet_size:U.mtu ())
      ~hw:D.Panic.hardware
  in
  Alcotest.(check bool) "more engines, more capacity" true (cap 4 > cap 1);
  (* below the knee IP4 is binding: capacity = d x engine rate / load
     share, with an 11.5 Gbps engine *)
  check_within ~pct:1. "IP4 binding at degree 1" (11.5 *. U.gbps /. 0.65) (cap 1)

let suite =
  [
    quick "accel: media assignment" accel_media_assignment;
    quick "accel: Fig 5 ratios pinned" accel_fig5_ratios;
    quick "liquidio: constants" liquidio_constants;
    quick "liquidio: graph shape" liquidio_graph_shape;
    quick "liquidio: microservice core rate" liquidio_microservice_rate;
    quick "ssd: effective profiles" ssd_effective_profiles;
    quick "ssd: GC mode ordering" ssd_gc_modes_ordering;
    quick "ssd: validation" ssd_validation;
    quick "stingray: graph" stingray_graph;
    quick "bluefield: placements" bluefield_placements_enumeration;
    quick "bluefield: costs monotone" bluefield_costs_monotone_in_size;
    quick "bluefield: accel interface" bluefield_accel_interface;
    quick "bluefield: graph shapes" bluefield_graph_shapes;
    quick "bluefield: RtC capacity invariant" bluefield_rtc_capacity_invariant;
    quick "panic: effective unit rate" panic_effective_rate;
    quick "panic: graphs valid" panic_graphs_valid;
    quick "panic: parallel capacity ratio" panic_parallelized_capacity_ratio;
    quick "panic: hybrid IP4 scaling" panic_hybrid_parallelism_scales_ip4;
  ]
