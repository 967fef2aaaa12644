type report = {
  throughput : Throughput.result;
  latency : Latency.result;
  traffic : Traffic.t;
}

let run ?queue_model g ~hw ~traffic =
  {
    throughput = Throughput.evaluate g ~hw ~traffic;
    latency = Latency.evaluate ?model:queue_model g ~hw ~traffic;
    traffic;
  }

let goodput r =
  Float.min r.throughput.Throughput.attained r.latency.Latency.carried_rate

let run_mix ?queue_model ?contention g ~hw ~mix =
  Extensions.mixed_traffic ?queue_model ?contention ~hw
    ~graph_for:(fun _ -> g)
    mix

let saturation_sweep ?(points = 20) ?queue_model g ~hw ~packet_size ~max_rate =
  if points < 1 then invalid_arg "Estimate.saturation_sweep: points must be >= 1";
  List.init points (fun i ->
      let rate = max_rate *. float_of_int (i + 1) /. float_of_int points in
      let traffic = Traffic.make ~rate ~packet_size in
      let r = run ?queue_model g ~hw ~traffic in
      (rate, r.throughput.Throughput.attained, r.latency.Latency.mean))

let pp_report g ppf r =
  Fmt.pf ppf "@[<v>traffic: %a@,%a@,%a@]" Traffic.pp r.traffic
    (Throughput.pp_result g) r.throughput Latency.pp_result r.latency
