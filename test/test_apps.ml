(* Integration tests over the five case studies: each asserts the
   paper-level claims our reproduction targets (see EXPERIMENTS.md). *)

open Helpers
module U = Lognic.Units
module A = Lognic_devices.Accel_spec
open Lognic_apps

(* Case study #1 *)

let case1_fig9_knees () =
  (* §4.2: MD5/KASUMI/HFA need 9/8/11 cores to max out. *)
  Alcotest.(check int) "MD5 knee" 9 (Inline_accel.required_cores ~spec:A.md5);
  Alcotest.(check int) "KASUMI knee" 8 (Inline_accel.required_cores ~spec:A.kasumi);
  Alcotest.(check int) "HFA knee" 11 (Inline_accel.required_cores ~spec:A.hfa)

let case1_fig9_model_accuracy () =
  (* §4.2: model-vs-measured difference well under a few percent. *)
  List.iter
    (fun spec ->
      let points = Inline_accel.fig9_parallelism_sweep ~duration:0.03 ~spec () in
      List.iter
        (fun (p : Inline_accel.point) ->
          check_within ~pct:5.
            (Printf.sprintf "%s at %g cores" spec.A.name p.x)
            p.model p.measured)
        points)
    [ A.md5; A.kasumi ]

let case1_fig9_shape () =
  (* linear rise then plateau at the accelerator's peak *)
  let points = Inline_accel.fig9_parallelism_sweep ~duration:0.02 ~spec:A.md5 () in
  let model = List.map (fun (p : Inline_accel.point) -> p.model) points in
  let sorted = List.sort compare model in
  Alcotest.(check (list (float 1e-6))) "monotone" sorted model;
  check_close "plateau at peak ops" A.md5.peak_ops (List.nth model 15)

let case1_fig5_granularity () =
  let points = Inline_accel.fig5_granularity_sweep ~duration:0.02 ~spec:A.crc () in
  let at g =
    (List.find (fun (p : Inline_accel.point) -> p.x = g) points).model
  in
  check_close "flat at small granularity" (at 512.) (at 1024.);
  Alcotest.(check bool) "dropping past the knee" true (at 8192. < at 2048.);
  (* §4.2: 16KB granularity leaves CRC at 13.6% of peak *)
  check_within ~pct:3. "CRC 16KB = 13.6% of peak" 0.136 (at 16384. /. at 512.)

let case1_fig10_law () =
  (* achieved bandwidth = min(P_IP2 x size, line rate) at full cores *)
  let points = Inline_accel.fig10_packet_size_sweep ~duration:0.02 ~spec:A.crc () in
  List.iter
    (fun (p : Inline_accel.point) ->
      let expected = Float.min (A.crc.peak_ops *. p.x) Lognic_devices.Liquidio.line_rate in
      check_within ~pct:2. (Printf.sprintf "size %g" p.x) expected p.model)
    points

(* Case study #2 *)

let case2_fig6_accuracy () =
  (* §4.3: latency estimation error ~1%. Our tolerance: < 3% per profile. *)
  List.iter
    (fun (name, io) ->
      let points = Nvme_of.fig6_profile_sweep ~duration:0.25 ~points:6 ~io () in
      let error = Nvme_of.fig6_error_rate points in
      if error >= 0.03 then
        Alcotest.failf "%s error %.2f%% exceeds 3%%" name (100. *. error))
    [
      ("4KB-RRD", Lognic_devices.Ssd.rrd_4k);
      ("128KB-RRD", Lognic_devices.Ssd.rrd_128k);
      ("4KB-SWR", Lognic_devices.Ssd.swr_4k);
    ]

let case2_fig6_latency_rises () =
  let points =
    Nvme_of.fig6_profile_sweep ~duration:0.2 ~points:6
      ~io:Lognic_devices.Ssd.rrd_4k ()
  in
  let first = List.hd points and last = List.nth points 5 in
  Alcotest.(check bool)
    "latency rises toward saturation" true
    (last.Nvme_of.model_latency > first.Nvme_of.model_latency)

let case2_fig7_gc_gap () =
  (* §4.3: the model under-predicts mixed R/W bandwidth (~14.6%); the
     gap must peak mid-range and vanish at the pure endpoints. *)
  let points = Nvme_of.fig7_read_ratio_sweep ~duration:0.25 () in
  let gap (p : Nvme_of.mixed_point) =
    (p.measured_bandwidth -. p.model_bandwidth) /. p.measured_bandwidth
  in
  let find r = List.find (fun (p : Nvme_of.mixed_point) -> p.read_ratio = r) points in
  Alcotest.(check bool) "pure writes agree" true (abs_float (gap (find 0.)) < 0.05);
  Alcotest.(check bool) "pure reads agree" true (abs_float (gap (find 1.)) < 0.05);
  let mid = gap (find 0.5) in
  Alcotest.(check bool)
    "mid-ratio underestimate in the 8-25% band" true
    (mid > 0.08 && mid < 0.25)

let case2_calibration () =
  let fit = Nvme_of.calibration_demo ~io:Lognic_devices.Ssd.rrd_4k () in
  let eff =
    Lognic_devices.Ssd.effective Lognic_devices.Ssd.default
      ~io:Lognic_devices.Ssd.rrd_4k ~gc:Lognic_devices.Ssd.Gc_realistic
  in
  (* the fitted capacity should land near the drive's actual capacity *)
  check_within ~pct:15. "fitted capacity" eff.Lognic_devices.Ssd.capacity
    fit.Lognic.Calibrate.capacity

(* Case study #3 *)

let case3_opt_dominates () =
  List.iter
    (fun workload ->
      match Microservices.compare_schemes workload with
      | [ rr; eq; opt ] ->
        Alcotest.(check bool)
          (workload.Microservices.name ^ ": opt throughput dominates")
          true
          (opt.throughput >= rr.throughput -. 1e-6
          && opt.throughput >= eq.throughput -. 1e-6);
        Alcotest.(check bool)
          (workload.Microservices.name ^ ": opt latency dominates")
          true
          (opt.latency <= rr.latency +. 1e-12 && opt.latency <= eq.latency +. 1e-12)
      | _ -> Alcotest.fail "three schemes")
    Microservices.all

let case3_gains_match_paper () =
  (* §4.4: ~34.8% / 36.4% throughput gains. Ours must land within a
     third of those (shape, not absolute). *)
  let gains =
    List.map
      (fun w ->
        match Microservices.compare_schemes w with
        | [ rr; eq; opt ] ->
          ( (opt.throughput /. rr.throughput) -. 1.,
            (opt.throughput /. eq.throughput) -. 1. )
        | _ -> assert false)
      Microservices.all
  in
  let avg f = List.fold_left (fun a g -> a +. f g) 0. gains /. 5. in
  let vs_rr = avg fst and vs_eq = avg snd in
  Alcotest.(check bool)
    "gain vs round-robin in [23%, 47%]" true
    (vs_rr > 0.23 && vs_rr < 0.47);
  Alcotest.(check bool)
    "gain vs equal partition in [24%, 49%]" true
    (vs_eq > 0.24 && vs_eq < 0.49)

let case3_allocations_sane () =
  List.iter
    (fun w ->
      let alloc = Microservices.allocation Microservices.Lognic_opt w in
      Alcotest.(check int)
        (w.Microservices.name ^ ": uses all cores")
        16
        (List.fold_left ( + ) 0 alloc);
      Alcotest.(check bool)
        (w.Microservices.name ^ ": every stage staffed")
        true
        (List.for_all (fun c -> c >= 1) alloc);
      (* cores roughly proportional to stage cost: the costliest stage
         gets the most cores *)
      let costs = List.map snd w.Microservices.stages in
      let max_cost = List.fold_left Float.max 0. costs in
      let max_alloc = List.fold_left max 0 alloc in
      let costliest_index =
        fst (List.fold_left
               (fun (best, i) c -> if c = max_cost then (i, i + 1) else (best, i + 1))
               (0, 0) costs)
      in
      Alcotest.(check int)
        (w.Microservices.name ^ ": costliest stage gets most cores")
        max_alloc
        (List.nth alloc costliest_index))
    Microservices.all

let case3_hybrid_migration () =
  (* Â§4.4's host-migration path: the hybrid never loses to NIC-only
     (split_at = #stages IS NIC-only and is in the search space), and
     for these overloaded chains moving a suffix to the host wins. *)
  List.iter
    (fun w ->
      let k = List.length w.Microservices.stages in
      let split = Microservices.best_hybrid_split w in
      Alcotest.(check bool)
        (w.Microservices.name ^ ": split in range")
        true
        (split >= 0 && split <= k);
      let gain = Microservices.hybrid_gain w in
      Alcotest.(check bool)
        (w.Microservices.name ^ ": migration never hurts")
        true (gain >= 1. -. 1e-9);
      Alcotest.(check bool)
        (w.Microservices.name ^ ": migration helps this chain")
        true (gain > 1.1);
      (* graph validity across all split points *)
      for s = 0 to k do
        Alcotest.(check bool)
          (Printf.sprintf "%s: valid at split %d" w.Microservices.name s)
          true
          (Result.is_ok
             (Lognic.Graph.validate (Microservices.hybrid_graph w ~split_at:s)))
      done)
    Microservices.all;
  check_raises_invalid "split out of range" (fun () ->
      Microservices.hybrid_graph (List.hd Microservices.all) ~split_at:9)

let case3_hybrid_pays_pcie_latency () =
  (* structural: the crossing vertex carries the PCIe driver latency as
     O and the crossing edge is the PCIe link. (In end-to-end latency
     the faster host cores largely offset that tax, which is exactly
     why the capacity-driven migration is worthwhile.) *)
  let w = List.find (fun w -> w.Microservices.name = "NFV-FIN") Microservices.all in
  let g = Microservices.hybrid_graph w ~split_at:2 in
  let crossing =
    List.find
      (fun (v : Lognic.Graph.vertex) ->
        v.service.overhead >= Lognic_devices.Host.pcie_latency)
      (Lognic.Graph.vertices g)
  in
  let pcie_edge =
    List.find
      (fun (e : Lognic.Graph.edge) ->
        e.bandwidth = Some Lognic_devices.Host.pcie_bandwidth)
      (Lognic.Graph.edges g)
  in
  Alcotest.(check bool)
    "crossing leaves the NIC prefix" true
    (String.length crossing.label > 4 && String.sub crossing.label 0 4 = "nic.");
  Alcotest.(check bool)
    "PCIe edge enters the host suffix" true
    (String.sub (Lognic.Graph.vertex g pcie_edge.dst).label 0 5 = "host.")

let case3_energy_efficiency () =
  (* E3's premise: wimpy NIC cores beat host cores on requests/joule
     even where raw capacity says otherwise. *)
  List.iter
    (fun w ->
      match Microservices.energy_comparison w with
      | [ nic; host; hybrid ] ->
        Alcotest.(check string) "order" "nic" nic.Microservices.placement;
        Alcotest.(check bool)
          (w.Microservices.name ^ ": NIC >= 3x host efficiency")
          true
          (nic.Microservices.rps_per_watt
          > 3. *. host.Microservices.rps_per_watt);
        Alcotest.(check bool)
          (w.Microservices.name ^ ": hybrid capacity highest")
          true
          (hybrid.Microservices.capacity_rps
          >= Float.max nic.Microservices.capacity_rps
               host.Microservices.capacity_rps
             -. 1e-6);
        Alcotest.(check bool)
          (w.Microservices.name ^ ": hybrid efficiency between host and NIC")
          true
          (hybrid.Microservices.rps_per_watt > host.Microservices.rps_per_watt
          && hybrid.Microservices.rps_per_watt < nic.Microservices.rps_per_watt)
      | _ -> Alcotest.fail "three placements")
    Microservices.all

(* Case study #4 *)

let case4_opt_dominates_throughput () =
  let outcomes = Nf_chain.sweep () in
  List.iter
    (fun (o : Nf_chain.outcome) ->
      let opt =
        List.find
          (fun (p : Nf_chain.outcome) ->
            p.scheme = Nf_chain.Lognic_opt && p.packet_size = o.packet_size)
          outcomes
      in
      Alcotest.(check bool)
        (Printf.sprintf "opt >= %s at %gB" (Nf_chain.scheme_name o.scheme) o.packet_size)
        true
        (opt.throughput >= o.throughput -. 1e-6))
    outcomes

let case4_regime_flip () =
  (* ARM wins at 64B, accelerators win at MTU. *)
  let outcomes = Nf_chain.sweep ~sizes:[ 64.; U.mtu ] () in
  let at size scheme =
    (List.find
       (fun (o : Nf_chain.outcome) -> o.scheme = scheme && o.packet_size = size)
       outcomes)
      .Nf_chain.throughput
  in
  Alcotest.(check bool)
    "ARM-only >= accel-only at 64B" true
    (at 64. Nf_chain.Arm_only >= at 64. Nf_chain.Accel_only);
  Alcotest.(check bool)
    "accel-only > ARM-only at MTU" true
    (at U.mtu Nf_chain.Accel_only > at U.mtu Nf_chain.Arm_only)

let case4_placement_flips_with_size () =
  let p64 = Nf_chain.describe_placement ~packet_size:64. in
  let p1500 = Nf_chain.describe_placement ~packet_size:U.mtu in
  Alcotest.(check bool) "placements differ across sizes" true (p64 <> p1500);
  (* DPI can never be accelerated *)
  Alcotest.(check bool) "DPI on arm" true (contains_substring p64 "DPI:arm");
  Alcotest.(check bool) "DPI on arm" true (contains_substring p1500 "DPI:arm")

let case4_gains () =
  (* §4.5: +81.9% over ARM-only, +21.7% over accel-only on average.
     Require the same ordering with at least half the magnitude. *)
  let outs = Nf_chain.sweep () in
  let by s = List.filter (fun (o : Nf_chain.outcome) -> o.scheme = s) outs in
  let avg_gain base =
    let pairs = List.combine (by Nf_chain.Lognic_opt) (by base) in
    List.fold_left
      (fun acc ((o : Nf_chain.outcome), (b : Nf_chain.outcome)) ->
        acc +. ((o.throughput /. b.throughput) -. 1.))
      0. pairs
    /. float_of_int (List.length pairs)
  in
  Alcotest.(check bool) "vs ARM-only > 40%" true (avg_gain Nf_chain.Arm_only > 0.4);
  Alcotest.(check bool) "vs accel-only > 10%" true (avg_gain Nf_chain.Accel_only > 0.1)

(* Case study #5 *)

let case5_credit_suggestions () =
  (* §4.6 scenario 1: suggested credits 5/4/4/4. *)
  let suggestions =
    List.map (fun p -> Panic_scenarios.suggest_credits ~profile:p ()) Panic_scenarios.profiles
  in
  Alcotest.(check (list int)) "5/4/4/4" [ 5; 4; 4; 4 ] suggestions

let case5_credit_latency_drop () =
  (* §4.6: 21.8% latency drop for profile 1; ours must be a clear
     monotone improvement, largest for profile 1. *)
  let drops =
    List.map
      (fun p -> Panic_scenarios.latency_drop_vs_default ~profile:p ())
      Panic_scenarios.profiles
  in
  List.iter (fun d -> Alcotest.(check bool) "positive drop" true (d > 0.02)) drops;
  let p1 = List.hd drops in
  Alcotest.(check bool)
    "profile 1 sees the largest drop" true
    (List.for_all (fun d -> p1 >= d -. 1e-9) drops)

let case5_credit_bandwidth_monotone () =
  let points = Panic_scenarios.fig15_credit_sweep ~duration:0.02 ~profile:(List.hd Panic_scenarios.profiles) () in
  let model = List.map (fun (p : Panic_scenarios.credit_point) -> p.model_bandwidth) points in
  let sorted = List.sort compare model in
  Alcotest.(check (list (float 1e-3))) "goodput monotone in credits" sorted model

let case5_steering_optimal () =
  (* §4.6 scenario 2: the LogNIC split beats all four static ones, and
     the suggested X is near the capacity-proportional 56. *)
  List.iter
    (fun size ->
      let points = Panic_scenarios.fig16_17_steering ~packet_size:size () in
      let statics, lognic =
        match List.rev points with
        | l :: rest -> (rest, l)
        | [] -> assert false
      in
      List.iter
        (fun (s : Panic_scenarios.steering_point) ->
          Alcotest.(check bool)
            (Printf.sprintf "latency at %gB vs %s" size s.split_label)
            true
            (lognic.Panic_scenarios.latency <= s.latency +. 1e-12);
          Alcotest.(check bool)
            (Printf.sprintf "throughput at %gB vs %s" size s.split_label)
            true
            (lognic.Panic_scenarios.throughput >= s.throughput -. 1e-6))
        statics;
      check_within ~pct:8. "X near proportional" 56. lognic.x_percent)
    [ 64.; 512.; U.mtu ]

let case5_parallelism_suggestions () =
  (* §4.6 scenario 3: degrees 6 and 4. *)
  Alcotest.(check int) "50/50 -> 6" 6
    (Panic_scenarios.suggest_parallelism ~split:(50., 50.) ());
  Alcotest.(check int) "80/20 -> 4" 4
    (Panic_scenarios.suggest_parallelism ~split:(80., 20.) ())

let case5_parallelism_curves () =
  List.iter
    (fun split ->
      let points = Panic_scenarios.fig18_19_parallelism ~split () in
      let tps = List.map (fun (p : Panic_scenarios.parallelism_point) -> p.p_throughput) points in
      let lats = List.map (fun (p : Panic_scenarios.parallelism_point) -> p.p_latency) points in
      Alcotest.(check (list (float 1e-3))) "throughput rises" (List.sort compare tps) tps;
      Alcotest.(check (list (float 1e-12)))
        "latency falls"
        (List.rev (List.sort compare lats))
        lats)
    [ (50., 50.); (80., 20.) ]

(* Figures registry *)

let figures_registry () =
  Alcotest.(check int) "22 renderables" 22 (List.length Figures.names);
  Alcotest.(check bool)
    "unknown figure" true
    (Result.is_error (Figures.render "fig99" Fmt.stdout));
  (* cheap figures render without raising *)
  let buffer = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buffer in
  List.iter
    (fun name ->
      match Figures.render name ppf with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ "table2"; "fig16"; "fig17"; "fig18"; "fig19" ];
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "produced output" true (Buffer.length buffer > 500)

let suite =
  [
    quick "case1: Fig 9 knees (9/8/11 cores)" case1_fig9_knees;
    slow "case1: Fig 9 model accuracy" case1_fig9_model_accuracy;
    quick "case1: Fig 9 shape" case1_fig9_shape;
    quick "case1: Fig 5 granularity" case1_fig5_granularity;
    quick "case1: Fig 10 min law" case1_fig10_law;
    slow "case2: Fig 6 accuracy" case2_fig6_accuracy;
    slow "case2: Fig 6 latency curve" case2_fig6_latency_rises;
    slow "case2: Fig 7 GC gap" case2_fig7_gc_gap;
    slow "case2: calibration round trip" case2_calibration;
    quick "case3: opt dominates" case3_opt_dominates;
    quick "case3: gains match the paper" case3_gains_match_paper;
    quick "case3: allocations sane" case3_allocations_sane;
    quick "case3: hybrid NIC/host migration" case3_hybrid_migration;
    quick "case3: hybrid pays the PCIe tax" case3_hybrid_pays_pcie_latency;
    quick "case3: energy efficiency" case3_energy_efficiency;
    quick "case4: opt dominates throughput" case4_opt_dominates_throughput;
    quick "case4: regime flip with size" case4_regime_flip;
    quick "case4: placement flips" case4_placement_flips_with_size;
    quick "case4: gains" case4_gains;
    quick "case5: credits 5/4/4/4" case5_credit_suggestions;
    quick "case5: credit latency drop" case5_credit_latency_drop;
    quick "case5: credit bandwidth monotone" case5_credit_bandwidth_monotone;
    quick "case5: steering optimal" case5_steering_optimal;
    quick "case5: parallelism 6/4" case5_parallelism_suggestions;
    quick "case5: parallelism curves" case5_parallelism_curves;
    quick "figures: registry" figures_registry;
  ]
