module U = Lognic.Units
module D = Lognic_devices

type point = {
  offered : float;
  model_latency : float;
  measured_latency : float;
  model_throughput : float;
  measured_throughput : float;
}

let sim_config ~seed duration = Study.sim_config ~seed ~warmup_fraction:0.2 duration

(* The measured side keeps the drive's realistic behaviour; single-type
   profiles (all-read or sequential-write) incur no GC either way, so
   Fig 6's model and measurement share SSD parameters and the remaining
   error is the model's queueing approximation. *)
let fig6_profile_sweep ?(duration = 0.4) ?(seed = 7) ?jobs ?(points = 10) ~io
    () =
  let eff = D.Ssd.effective D.Ssd.default ~io ~gc:D.Ssd.Gc_realistic in
  let graph = D.Stingray.nvme_of_graph ~gc:D.Ssd.Gc_realistic ~io () in
  let max_rate = 0.9 *. eff.D.Ssd.capacity in
  Lognic_numerics.Parallel.map ?jobs
    (fun i ->
      let offered = max_rate *. float_of_int (i + 1) /. float_of_int points in
      let traffic = Lognic.Traffic.make ~rate:offered ~packet_size:io.D.Ssd.io_size in
      (* Mmcn_model is the calibration-equivalent of §4.3's curve fit:
         the SSD's D = 64 in-flight commands make Eq 12's single-queue
         abstraction overstate queueing (see Latency.queue_model). *)
      let report =
        Lognic.Estimate.run ~queue_model:Lognic.Latency.Mmcn_model graph
          ~hw:D.Stingray.hardware ~traffic
      in
      let m =
        Lognic_sim.Netsim.run_single
          ~config:(sim_config ~seed:(seed + i) duration)
          graph ~hw:D.Stingray.hardware ~traffic
      in
      {
        offered;
        model_latency = report.latency.Lognic.Latency.mean;
        measured_latency = m.summary.Lognic_sim.Telemetry.mean_latency;
        model_throughput = report.throughput.Lognic.Throughput.attained;
        measured_throughput = m.summary.Lognic_sim.Telemetry.throughput;
      })
    (List.init points Fun.id)

let fig6_error_rate points =
  let errors =
    List.filter_map
      (fun p ->
        if p.measured_latency > 0. then
          Some
            (Lognic_numerics.Stats.relative_error ~actual:p.model_latency
               ~expected:p.measured_latency)
        else None)
      points
  in
  match errors with
  | [] -> 0.
  | _ -> Lognic_numerics.Stats.mean (Array.of_list errors)

type mixed_point = {
  read_ratio : float;
  measured_bandwidth : float;
  model_bandwidth : float;
}

let read_ratios = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ]

let fig7_read_ratio_sweep ?(duration = 0.4) ?(seed = 31) ?jobs () =
  Lognic_numerics.Parallel.map ?jobs
    (fun (i, read_ratio) ->
      let io = D.Ssd.mixed_4k ~read_fraction:read_ratio in
      (* Drive the drive into saturation so bandwidth, not offered load,
         is measured. *)
      let realistic =
        D.Ssd.effective D.Ssd.default ~io ~gc:D.Ssd.Gc_realistic
      in
      let offered = 1.3 *. realistic.D.Ssd.capacity in
      let traffic = Lognic.Traffic.make ~rate:offered ~packet_size:io.D.Ssd.io_size in
      let measured_graph = D.Stingray.nvme_of_graph ~gc:D.Ssd.Gc_realistic ~io () in
      let model_graph = D.Stingray.nvme_of_graph ~gc:D.Ssd.Gc_worst_case ~io () in
      let m =
        Lognic_sim.Netsim.run_single
          ~config:(sim_config ~seed:(seed + i) duration)
          measured_graph ~hw:D.Stingray.hardware ~traffic
      in
      let report = Lognic.Estimate.run model_graph ~hw:D.Stingray.hardware ~traffic in
      {
        read_ratio;
        measured_bandwidth = m.summary.Lognic_sim.Telemetry.throughput;
        model_bandwidth = report.throughput.Lognic.Throughput.attained;
      })
    (List.mapi (fun i r -> (i, r)) read_ratios)

let calibration_demo ?(duration = 0.2) ?(seed = 53) ~io () =
  let eff = D.Ssd.effective D.Ssd.default ~io ~gc:D.Ssd.Gc_realistic in
  let graph = D.Stingray.nvme_of_graph ~gc:D.Ssd.Gc_realistic ~io () in
  let sweep =
    (* Sample through and beyond the saturation knee; the x-axis is the
       *achieved* throughput (as in Fig 6), so post-saturation points
       cluster at the capacity asymptote and pin the fit. *)
    List.init 10 (fun i ->
        let rate = eff.D.Ssd.capacity *. (0.3 +. (0.095 *. float_of_int i)) in
        let traffic = Lognic.Traffic.make ~rate ~packet_size:io.D.Ssd.io_size in
        let m =
          Lognic_sim.Netsim.run_single
            ~config:(sim_config ~seed:(seed + i) duration)
            graph ~hw:D.Stingray.hardware ~traffic
        in
        ( m.summary.Lognic_sim.Telemetry.throughput,
          m.summary.Lognic_sim.Telemetry.mean_latency ))
  in
  Lognic.Calibrate.fit_opaque_ip ~data:(Array.of_list sweep)
