type fault =
  | Engine_down of { vertex : string; engines : int }
  | Medium_degraded of { medium : string; factor : float }
  | Queue_shrunk of { vertex : string; capacity : int }
  | Drop_burst of { probability : float }

type modifier = {
  engines_down : (string * int) list;
  media_factors : (string * float) list;
  queue_caps : (string * int) list;
  ingress_drop : float;
}

let no_modifier =
  { engines_down = []; media_factors = []; queue_caps = []; ingress_drop = 0. }

let is_degraded m =
  m.engines_down <> [] || m.media_factors <> [] || m.queue_caps <> []
  || m.ingress_drop > 0.

(* One entry per target, in first-seen order: a repeated target folds
   into its entry with [merge]. *)
let add merge key v entries =
  match List.assoc_opt key entries with
  | None -> entries @ [ (key, v) ]
  | Some prev ->
    List.map (fun (k, x) -> if k = key then (k, merge prev v) else (k, x)) entries

let compose faults =
  let m, survival =
    List.fold_left
      (fun (m, survival) fault ->
        match fault with
        | Engine_down { vertex; engines } ->
          ({ m with engines_down = add ( + ) vertex engines m.engines_down }, survival)
        | Medium_degraded { medium; factor } ->
          ({ m with media_factors = add ( *. ) medium factor m.media_factors }, survival)
        | Queue_shrunk { vertex; capacity } ->
          ({ m with queue_caps = add min vertex capacity m.queue_caps }, survival)
        | Drop_burst { probability } -> (m, survival *. (1. -. probability)))
      (no_modifier, 1.) faults
  in
  { m with ingress_drop = 1. -. survival }

(* The modified graph and hardware an interval is evaluated under, plus
   the first fully-failed vertex (all engines down) if any — in that
   case the returned graph simply omits that vertex's D′ = 0 scaling
   and the caller must treat the interval as delivering nothing.
   Unknown labels are ignored here; [Lognic_sim.Faults] validates names
   against the realized entities before anything reaches this point. *)
let apply_modifier g ~(hw : Params.hardware) m =
  let failed = ref None in
  let g =
    List.fold_left
      (fun g (label, down) ->
        match Graph.find_vertex g ~label with
        | None -> g
        | Some v ->
          let d = v.Graph.service.parallelism in
          if down >= d then begin
            if !failed = None then failed := Some v.Graph.id;
            g
          end
          else
            let keep = float_of_int (d - down) /. float_of_int d in
            Graph.update_service g v.Graph.id (fun s ->
                {
                  s with
                  Graph.throughput = s.Graph.throughput *. keep;
                  parallelism = d - down;
                }))
      g m.engines_down
  in
  let g =
    List.fold_left
      (fun g (label, cap) ->
        match Graph.find_vertex g ~label with
        | None -> g
        | Some v ->
          Graph.update_service g v.Graph.id (fun s ->
              { s with Graph.queue_capacity = min s.Graph.queue_capacity cap }))
      g m.queue_caps
  in
  let g, hw =
    List.fold_left
      (fun (g, hw) (label, factor) ->
        if label = Params.medium_name Interface then
          (g, { hw with Params.bw_interface = hw.Params.bw_interface *. factor })
        else if label = Params.medium_name Memory then
          (g, { hw with Params.bw_memory = hw.Params.bw_memory *. factor })
        else
          match
            List.find_opt
              (fun (e : Graph.edge) ->
                e.bandwidth <> None
                && Params.medium_name (Link (e.src, e.dst)) = label)
              (Graph.edges g)
          with
          | Some { src; dst; bandwidth = Some bw; _ } ->
            (Graph.set_edge_params ~bandwidth:(Some (bw *. factor)) ~src ~dst g, hw)
          | Some _ | None -> (g, hw))
      (g, hw) m.media_factors
  in
  (g, hw, !failed)

type interval_report = {
  d_start : float;
  d_stop : float;
  degraded : bool;
  capacity : float;
  carried : float;
  latency : float;
  bottleneck : Throughput.bound;
  slo_ok : bool;
}

let slo_throughput_fraction = 0.9
let slo_latency_factor = 2.

type report = {
  intervals : interval_report list;
  nominal_throughput : float;
  nominal_latency : float;
  degraded_throughput : float;
  degraded_latency : float;
  availability : float;
  worst : interval_report option;
}

let evaluate ?queue_model g ~hw ~(traffic : Traffic.t) ~intervals =
  if intervals = [] then invalid_arg "Degraded.evaluate: no intervals";
  List.iter
    (fun (a, b, _) ->
      if b <= a || a < 0. then
        invalid_arg "Degraded.evaluate: intervals must have positive length")
    intervals;
  let nominal_tp = Throughput.evaluate g ~hw ~traffic in
  let nominal_throughput = nominal_tp.Throughput.attained in
  let nominal_latency =
    (Latency.evaluate ?model:queue_model g ~hw ~traffic).Latency.mean
  in
  let meets_slo ~carried ~latency =
    carried >= slo_throughput_fraction *. nominal_throughput
    && ((not (Float.is_finite nominal_latency))
       || latency <= slo_latency_factor *. nominal_latency)
  in
  let rows =
    List.map
      (fun (d_start, d_stop, m) ->
        let g', hw', failed = apply_modifier g ~hw m in
        let carries_nothing ~capacity bottleneck =
          {
            d_start;
            d_stop;
            degraded = true;
            capacity;
            carried = 0.;
            latency = infinity;
            bottleneck;
            slo_ok = false;
          }
        in
        match failed with
        | Some vid -> carries_nothing ~capacity:0. (Throughput.Vertex_bound vid)
        | None when m.ingress_drop >= 1. ->
          (* every offered packet is shed at ingress: the device keeps
             its ceiling, and nothing reaches it *)
          carries_nothing
            ~capacity:(Throughput.evaluate g' ~hw:hw' ~traffic).Throughput.capacity
            Throughput.Offered_load
        | None ->
          let traffic' =
            { traffic with Traffic.rate = traffic.rate *. (1. -. m.ingress_drop) }
          in
          let tp = Throughput.evaluate g' ~hw:hw' ~traffic:traffic' in
          let latency =
            (Latency.evaluate ?model:queue_model g' ~hw:hw' ~traffic:traffic')
              .Latency.mean
          in
          let carried = tp.Throughput.attained in
          {
            d_start;
            d_stop;
            degraded = is_degraded m;
            capacity = tp.Throughput.capacity;
            carried;
            latency;
            bottleneck = tp.Throughput.bottleneck;
            slo_ok = meets_slo ~carried ~latency;
          })
      intervals
  in
  let horizon =
    List.fold_left (fun acc r -> acc +. (r.d_stop -. r.d_start)) 0. rows
  in
  let weighted f =
    List.fold_left (fun acc r -> acc +. (f r *. (r.d_stop -. r.d_start))) 0. rows
  in
  let degraded_throughput =
    if horizon > 0. then weighted (fun r -> r.carried) /. horizon else 0.
  in
  (* Weight each interval's latency by the traffic it actually delivers
     (carried · Δt): a dead interval drags availability, not the latency
     of the packets that do get through. *)
  let delivered = weighted (fun r -> r.carried) in
  let degraded_latency =
    if delivered > 0. then
      List.fold_left
        (fun acc r ->
          if r.carried > 0. && Float.is_finite r.latency then
            acc +. (r.latency *. r.carried *. (r.d_stop -. r.d_start))
          else acc)
        0. rows
      /. delivered
    else 0.
  in
  let availability =
    if horizon > 0. then
      weighted (fun r -> if r.slo_ok then 1. else 0.) /. horizon
    else 1.
  in
  let worst =
    List.fold_left
      (fun acc r ->
        if not r.degraded then acc
        else
          match acc with
          | Some w when w.carried <= r.carried -> acc
          | _ -> Some r)
      None rows
  in
  {
    intervals = rows;
    nominal_throughput;
    nominal_latency;
    degraded_throughput;
    degraded_latency;
    availability;
    worst;
  }
