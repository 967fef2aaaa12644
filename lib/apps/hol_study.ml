module S = Lognic_sim
module N = Lognic_numerics
module U = Lognic.Units

type config = {
  rate : float;
  mice_size : float;
  elephant_size : float;
  mice_load : float;
  elephant_load : float;
  entries : int;
  mice_weight : int;
  engines : int;
}

let default =
  {
    rate = 10. *. U.gbps;
    mice_size = 64.;
    elephant_size = 16. *. U.kib;
    mice_load = 2.5 *. U.gbps;
    elephant_load = 5. *. U.gbps;
    entries = 256;
    mice_weight = 256;
    engines = 4;
  }

type outcome = {
  mice_mean : float;
  mice_p99 : float;
  elephant_mean : float;
  elephant_p99 : float;
  loss_rate : float;
}

type organization = Shared_fifo | Wrr

let run organization ?(seed = 17) ?(duration = 2.) config =
  let engine = S.Engine.create () in
  let rng = N.Rng.create ~seed in
  let node =
    match organization with
    | Shared_fifo ->
      S.Ip_node.create engine ~rng:(N.Rng.split rng) ~label:"ip"
        ~engines:config.engines
        ~rate_per_engine:(config.rate /. float_of_int config.engines)
        ~queue_capacity:(2 * config.entries)
        ~service_dist:S.Ip_node.Exponential
    | Wrr ->
      S.Ip_node.create_hierarchical engine ~rng:(N.Rng.split rng) ~label:"ip"
        ~engines:config.engines
        ~rate_per_engine:(config.rate /. float_of_int config.engines)
        ~entries_per_queue:config.entries ~group_weights:[| 1 |]
        ~class_weights:[| [| config.mice_weight; 1 |] |]
        ~service_dist:S.Ip_node.Exponential
  in
  let mice = N.Stats.Online.create () and elephants = N.Stats.Online.create () in
  let mice_samples = ref [] and elephant_samples = ref [] in
  let offered = ref 0 and dropped = ref 0 in
  let arrival_rng = N.Rng.split rng in
  let warmup = duration /. 10. in
  let submit ~klass ~size =
    incr offered;
    let born = S.Engine.now engine in
    let queue = match organization with Shared_fifo -> 0 | Wrr -> klass in
    let accepted =
      S.Ip_node.submit_at node ~queue ~work:size (fun () ->
          if born >= warmup then begin
            let sojourn = S.Engine.now engine -. born in
            let online, samples =
              if klass = 0 then (mice, mice_samples) else (elephants, elephant_samples)
            in
            N.Stats.Online.add online sojourn;
            samples := sojourn :: !samples
          end)
    in
    if not accepted then incr dropped
  in
  let schedule_stream ~klass ~size ~pps =
    let rec arrive () =
      submit ~klass ~size;
      let gap = N.Dist.sample_exponential ~rate:pps arrival_rng in
      let next = S.Engine.now engine +. gap in
      if next < duration then S.Engine.schedule engine ~at:next arrive
    in
    S.Engine.schedule engine
      ~at:(N.Dist.sample_exponential ~rate:pps arrival_rng)
      arrive
  in
  schedule_stream ~klass:0 ~size:config.mice_size
    ~pps:(config.mice_load /. config.mice_size);
  schedule_stream ~klass:1 ~size:config.elephant_size
    ~pps:(config.elephant_load /. config.elephant_size);
  S.Engine.run ~until:duration engine;
  let p99 samples =
    match !samples with
    | [] -> 0.
    | xs -> N.Stats.percentile (Array.of_list xs) 99.
  in
  {
    mice_mean = N.Stats.Online.mean mice;
    mice_p99 = p99 mice_samples;
    elephant_mean = N.Stats.Online.mean elephants;
    elephant_p99 = p99 elephant_samples;
    loss_rate =
      (if !offered = 0 then 0. else float_of_int !dropped /. float_of_int !offered);
  }

let run_shared_fifo ?seed ?duration config = run Shared_fifo ?seed ?duration config
let run_wrr ?seed ?duration config = run Wrr ?seed ?duration config

let model_mean_latency config =
  (* The virtual-shared-queue view: one M/M/1/N whose mean service time
     blends the classes by packet share. *)
  let mice_pps = config.mice_load /. config.mice_size in
  let elephant_pps = config.elephant_load /. config.elephant_size in
  let lambda = mice_pps +. elephant_pps in
  let mean_service =
    ((mice_pps *. config.mice_size) +. (elephant_pps *. config.elephant_size))
    /. lambda /. config.rate
  in
  let queue =
    Lognic_queueing.Mm1n.create ~lambda ~mu:(1. /. mean_service)
      ~capacity:(2 * config.entries)
  in
  (Lognic_queueing.Mm1n.solve queue).time_in_system
