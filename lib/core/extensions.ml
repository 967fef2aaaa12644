type tenant = { name : string; graph : Graph.t; traffic : Traffic.t }

type tenant_report = {
  tenant : string;
  throughput : Throughput.result;
  latency : Latency.result;
}

type consolidated = {
  tenants : tenant_report list;
  total_attained : float;
  mean_latency : float;
  interface_utilization : float;
  memory_utilization : float;
}

let sum_alpha g =
  List.fold_left (fun acc (e : Graph.edge) -> acc +. e.alpha) 0. (Graph.edges g)

let sum_beta g =
  List.fold_left (fun acc (e : Graph.edge) -> acc +. e.beta) 0. (Graph.edges g)

let consolidate ~(hw : Params.hardware) tenants =
  if tenants = [] then invalid_arg "Extensions.consolidate: no tenants";
  (* Per-tenant demand on the shared media, in bytes/s. *)
  let media_demand t =
    ( t.traffic.Traffic.rate *. sum_alpha t.graph,
      t.traffic.Traffic.rate *. sum_beta t.graph )
  in
  let total_intf_demand =
    List.fold_left (fun acc t -> acc +. fst (media_demand t)) 0. tenants
  in
  let total_mem_demand =
    List.fold_left (fun acc t -> acc +. snd (media_demand t)) 0. tenants
  in
  let interface_utilization = total_intf_demand /. hw.bw_interface in
  let memory_utilization = total_mem_demand /. hw.bw_memory in
  (* Each tenant sees the shared medium minus the others' demand
     (clamped to a sliver so evaluation stays defined even when
     oversubscribed — the per-tenant cap then reflects starvation). *)
  let hw_for t =
    let intf_d, mem_d = media_demand t in
    let available total own other_total =
      Float.max (total *. 0.01) (total -. (other_total -. own))
    in
    Params.hardware
      ~bw_interface:(available hw.bw_interface intf_d total_intf_demand)
      ~bw_memory:(available hw.bw_memory mem_d total_mem_demand)
  in
  let reports =
    List.map
      (fun t ->
        let hw' = hw_for t in
        {
          tenant = t.name;
          throughput = Throughput.evaluate t.graph ~hw:hw' ~traffic:t.traffic;
          latency = Latency.evaluate t.graph ~hw:hw' ~traffic:t.traffic;
        })
      tenants
  in
  let total_attained =
    List.fold_left (fun acc r -> acc +. r.throughput.Throughput.attained) 0. reports
  in
  let rate_weighted =
    List.map2
      (fun t r -> (r.latency.Latency.mean, t.traffic.Traffic.rate))
      tenants reports
  in
  let mean_latency = Lognic_numerics.Stats.weighted_mean rate_weighted in
  {
    tenants = reports;
    total_attained;
    mean_latency;
    interface_utilization;
    memory_utilization;
  }

type class_contention = {
  slowdown : float;
  pressure : (string * float) list;
  resource_caps : (string * float) list;
}

type contention = {
  demands : (string * float) list list;
  interference : float array array;
}

let contention ~demands ~interference =
  let n = List.length demands in
  if n = 0 then invalid_arg "Extensions.contention: empty demand list";
  if Array.length interference <> n then
    invalid_arg "Extensions.contention: interference matrix must be n x n";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg "Extensions.contention: interference matrix must be n x n";
      if row.(i) <> 0. then
        invalid_arg "Extensions.contention: interference diagonal must be 0";
      Array.iter
        (fun m ->
          if m < 0. || not (Float.is_finite m) then
            invalid_arg "Extensions.contention: interference must be finite >= 0")
        row)
    interference;
  List.iter
    (List.iter (fun (name, d) ->
         if name = "" then invalid_arg "Extensions.contention: empty resource name";
         if d < 0. || not (Float.is_finite d) then
           invalid_arg "Extensions.contention: demand must be finite >= 0"))
    demands;
  { demands; interference }

type mixed_report = {
  classes : (Traffic.t * float * Throughput.result * Latency.result) list;
  throughput : float;
  latency : float;
  contention : class_contention list option;
}

(* ---- joint multi-class evaluation ----------------------------------- *)

(* Shared entities are matched across class graphs by identity: vertex
   label, (src label, dst label) for dedicated links, and the two
   device-wide media. Byte demand per class on an entity is what the
   class offers through it; each entity's capacity is split across the
   classes by offered-byte share (weighted multi-class service). *)
type entity_key =
  | K_vertex of string
  | K_edge of string * string
  | K_interface
  | K_memory

type joint_class = {
  jc_cls : Traffic.t;
  jc_weight : float;  (* normalized *)
  jc_slow : Graph.t;  (* contention slowdown applied, capacities unsplit *)
  jc_scaled : Graph.t;  (* slowdown + byte-share capacity split *)
  jc_hw : Params.hardware;  (* media capacities split by byte share *)
  jc_slowdown : float;
  jc_pressure : (string * float) list;
  jc_resource_caps : (string * float) list;
}

let entity_totals pairs =
  let totals = Hashtbl.create 32 in
  let add key d =
    if d > 0. then
      let cur = Option.value (Hashtbl.find_opt totals key) ~default:0. in
      Hashtbl.replace totals key (cur +. d)
  in
  List.iter
    (fun ((cls : Traffic.t), g) ->
      List.iter
        (fun (v : Graph.vertex) ->
          if v.service.throughput < infinity then begin
            let inflow = Throughput.vertex_inflow g v.id in
            if inflow > 0. then add (K_vertex v.label) (cls.rate *. inflow)
          end)
        (Graph.vertices g);
      List.iter
        (fun (e : Graph.edge) ->
          match e.bandwidth with
          | Some _ when e.delta > 0. ->
            add
              (K_edge ((Graph.vertex g e.src).label, (Graph.vertex g e.dst).label))
              (cls.rate *. e.delta)
          | Some _ | None -> ())
        (Graph.edges g);
      add K_interface (cls.rate *. sum_alpha g);
      add K_memory (cls.rate *. sum_beta g))
    pairs;
  totals

(* A class that places no demand on an entity is not constrained by it
   (share 1 = keep the full capacity); the sole user of an entity gets
   share d/d = 1 exactly, so uncontended classes are never rescaled. *)
let share_of totals key own =
  if own <= 0. then 1.
  else
    match Hashtbl.find_opt totals key with
    | None -> 1.
    | Some total -> if total <= 0. then 1. else own /. total

let scale_class ~totals ~slowdown ((cls : Traffic.t), g) =
  let slow_g =
    if slowdown = 1. then g
    else
      List.fold_left
        (fun acc (v : Graph.vertex) ->
          if v.service.throughput = infinity then acc
          else
            Graph.update_service acc v.id (fun s ->
                { s with Graph.accel = s.Graph.accel /. slowdown }))
        g (Graph.vertices g)
  in
  let scaled =
    List.fold_left
      (fun acc (v : Graph.vertex) ->
        if v.service.throughput = infinity then acc
        else
          let inflow = Throughput.vertex_inflow g v.id in
          if inflow <= 0. then acc
          else
            let share = share_of totals (K_vertex v.label) (cls.rate *. inflow) in
            if share = 1. then acc
            else
              Graph.update_service acc v.id (fun s ->
                  { s with Graph.partition = s.Graph.partition *. share }))
      slow_g (Graph.vertices slow_g)
  in
  let scaled =
    List.fold_left
      (fun acc (e : Graph.edge) ->
        match e.bandwidth with
        | Some bw when e.delta > 0. ->
          let key =
            K_edge ((Graph.vertex g e.src).label, (Graph.vertex g e.dst).label)
          in
          let share = share_of totals key (cls.rate *. e.delta) in
          if share = 1. then acc
          else
            Graph.set_edge_params ~bandwidth:(Some (bw *. share)) ~src:e.src
              ~dst:e.dst acc
        | Some _ | None -> acc)
      scaled (Graph.edges scaled)
  in
  (slow_g, scaled)

let hw_for ~totals ~(hw : Params.hardware) ((cls : Traffic.t), g) =
  let sa = share_of totals K_interface (cls.rate *. sum_alpha g) in
  let sb = share_of totals K_memory (cls.rate *. sum_beta g) in
  if sa = 1. && sb = 1. then hw
  else
    {
      hw with
      Params.bw_interface = hw.bw_interface *. sa;
      bw_memory = hw.bw_memory *. sb;
    }

let build_joint ?contention:(spec : contention option) ~(hw : Params.hardware)
    ~graph_for mix =
  let classes = Traffic.normalize_weights mix in
  let pairs =
    List.map (fun ((cls : Traffic.t), w) -> (cls, w, graph_for cls)) classes
  in
  let n = List.length pairs in
  (match spec with
  | Some s when List.length s.demands <> n ->
    invalid_arg "Extensions.mixed_traffic: one demand vector per class required"
  | Some _ | None -> ());
  let totals =
    entity_totals (List.map (fun (cls, _, g) -> (cls, g)) pairs)
  in
  (* pressure_jr = class j's offered bytes through resource r over the
     resource capacity; slowdown_i = 1 + sum_{j<>i} M_ij . pressure_j *)
  let capacity_of name =
    match Params.resource_capacity hw name with
    | Some c -> c
    | None ->
      invalid_arg
        ("Extensions.mixed_traffic: resource " ^ name
       ^ " not in Params.hardware.resources")
  in
  let pressures =
    match spec with
    | None -> Array.make (max n 1) []
    | Some s ->
      Array.of_list
        (List.map2
           (fun (cls, _, _) demands ->
             List.map
               (fun (name, per_byte) ->
                 (name, (cls : Traffic.t).rate *. per_byte /. capacity_of name))
               demands)
           pairs s.demands)
  in
  let slowdowns =
    Array.init n (fun i ->
        match spec with
        | None -> 1.
        | Some s ->
          let acc = ref 0. in
          for j = 0 to n - 1 do
            if j <> i then
              List.iter
                (fun (_, p) -> acc := !acc +. (s.interference.(i).(j) *. p))
                pressures.(j)
          done;
          if !acc = 0. then 1. else 1. +. !acc)
  in
  let resource_caps =
    match spec with
    | None -> Array.make (max n 1) []
    | Some s ->
      (* resource capacity split by offered-byte share, like any other
         shared entity: cap_ir = share_ir . capacity_r / demand_ir *)
      let totals_r = Hashtbl.create 8 in
      List.iter2
        (fun ((cls : Traffic.t), _, _) demands ->
          List.iter
            (fun (name, per_byte) ->
              if per_byte > 0. then
                let cur =
                  Option.value (Hashtbl.find_opt totals_r name) ~default:0.
                in
                Hashtbl.replace totals_r name (cur +. (cls.rate *. per_byte)))
            demands)
        pairs s.demands;
      Array.of_list
        (List.map2
           (fun ((cls : Traffic.t), _, _) demands ->
             List.filter_map
               (fun (name, per_byte) ->
                 if per_byte <= 0. then None
                 else
                   let own = cls.rate *. per_byte in
                   let total =
                     Option.value (Hashtbl.find_opt totals_r name) ~default:own
                   in
                   let share = if total <= 0. then 1. else own /. total in
                   Some (name, share *. capacity_of name /. per_byte))
               demands)
           pairs s.demands)
  in
  List.mapi
    (fun i (cls, w, g) ->
      let slow_g, scaled_g =
        scale_class ~totals ~slowdown:slowdowns.(i) (cls, g)
      in
      {
        jc_cls = cls;
        jc_weight = w;
        jc_slow = slow_g;
        jc_scaled = scaled_g;
        jc_hw = hw_for ~totals ~hw (cls, g);
        jc_slowdown = slowdowns.(i);
        jc_pressure = pressures.(i);
        jc_resource_caps = resource_caps.(i);
      })
    pairs

(* (lambda, mu, scv) of the union queue a vertex serves, [None] when the
   class has the entity to itself (single-class limit: fall back to the
   exact Eq 11 evaluation, bit-for-bit). When every sharing class sees
   the same service rate the mixture collapses exactly (scv = 1, no
   correction is applied); otherwise the effective rate is the
   lambda-weighted harmonic mean and the hyperexponential service
   variability inflates waiting by the M/G/1 factor (1 + scv) / 2. *)
let joint_rates jcs (jc : joint_class) id =
  let v = Graph.vertex jc.jc_slow id in
  if
    v.service.throughput = infinity
    || Throughput.vertex_inflow jc.jc_slow id <= 0.
  then None
  else
    let rates =
      List.filter_map
        (fun other ->
          match Graph.find_vertex other.jc_slow ~label:v.label with
          | Some ov
            when ov.service.throughput < infinity
                 && Throughput.vertex_inflow other.jc_slow ov.id > 0. ->
            Some (Latency.vertex_rates other.jc_slow ~traffic:other.jc_cls ov.id)
          | Some _ | None -> None)
        jcs
    in
    match rates with
    | [] | [ _ ] -> None
    | rates ->
      let lambda = List.fold_left (fun acc (l, _) -> acc +. l) 0. rates in
      if lambda <= 0. then None
      else
        let mu0 = snd (List.hd rates) in
        let same_bits a b =
          Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        in
        if List.for_all (fun (_, m) -> same_bits m mu0) rates then
          Some (lambda, mu0, 1.)
        else begin
          let m1 =
            List.fold_left (fun acc (l, m) -> acc +. (l /. lambda /. m)) 0. rates
          in
          let m2 =
            List.fold_left
              (fun acc (l, m) -> acc +. (l /. lambda *. 2. /. (m *. m)))
              0. rates
          in
          let scv = Float.max 0. ((m2 -. (m1 *. m1)) /. (m1 *. m1)) in
          Some (lambda, 1. /. m1, scv)
        end

let joint_term_of ?model jcs (jc : joint_class) id =
  match joint_rates jcs jc id with
  | None -> Latency.vertex_terms ?model jc.jc_slow ~traffic:jc.jc_cls id
  | Some (lambda, mu, scv) ->
    let service = Latency.vertex_service_time jc.jc_slow ~traffic:jc.jc_cls id in
    let t = Latency.terms_of_rates ?model jc.jc_slow id ~service ~lambda ~mu in
    if scv = 1. then t
    else { t with Latency.queueing = t.Latency.queueing *. ((1. +. scv) /. 2.) }

let apply_resource_caps caps (cls : Traffic.t) (tp : Throughput.result) =
  List.fold_left
    (fun (tp : Throughput.result) (name, cap) ->
      if cap < tp.capacity then
        {
          tp with
          capacity = cap;
          attained = Float.min cap cls.rate;
          bottleneck =
            (if cap <= cls.rate then Throughput.Resource_bound name
             else tp.bottleneck);
        }
      else tp)
    tp caps

let mixed_traffic ?queue_model ?contention ~hw ~graph_for mix =
  let jcs = build_joint ?contention ~hw ~graph_for mix in
  let evaluated =
    List.map
      (fun jc ->
        let tp = Throughput.evaluate jc.jc_scaled ~hw:jc.jc_hw ~traffic:jc.jc_cls in
        let tp = apply_resource_caps jc.jc_resource_caps jc.jc_cls tp in
        let lat =
          Latency.evaluate_with
            ~term_of:(joint_term_of ?model:queue_model jcs jc)
            jc.jc_slow ~hw ~traffic:jc.jc_cls
        in
        (jc.jc_cls, jc.jc_weight, tp, lat))
      jcs
  in
  let throughput =
    List.fold_left
      (fun acc (_, _, (tp : Throughput.result), _) -> acc +. tp.attained)
      0. evaluated
  in
  let latency =
    List.fold_left
      (fun acc (_, w, _, (lat : Latency.result)) -> acc +. (w *. lat.mean))
      0. evaluated
  in
  let contention =
    match contention with
    | None -> None
    | Some _ ->
      Some
        (List.map
           (fun jc ->
             {
               slowdown = jc.jc_slowdown;
               pressure = jc.jc_pressure;
               resource_caps = jc.jc_resource_caps;
             })
           jcs)
  in
  { classes = evaluated; throughput; latency; contention }

let insert_rate_limiter g ~before ~rate ~queue_capacity =
  let target = Graph.vertex g before in
  if target.kind <> Graph.Ip then
    invalid_arg "Extensions.insert_rate_limiter: target must be an IP vertex";
  let incoming = Graph.in_edges g before in
  if incoming = [] then
    invalid_arg "Extensions.insert_rate_limiter: target has no incoming edge";
  let service =
    Graph.service ~queue_capacity ~throughput:rate ()
  in
  let g, limiter =
    Graph.add_vertex ~kind:Graph.Ip
      ~label:(target.label ^ ".rate_limiter")
      ~service g
  in
  let total_delta =
    List.fold_left (fun acc (e : Graph.edge) -> acc +. e.delta) 0. incoming
  in
  (* Re-point each incoming edge at the limiter, keeping its parameters,
     then connect the limiter to the target with the aggregate delta.
     The limiter only enqueues/dequeues, so its outgoing edge adds no
     shared-media traffic. *)
  let g =
    List.fold_left
      (fun g (e : Graph.edge) ->
        let g = Graph.remove_edge ~src:e.src ~dst:e.dst g in
        Graph.add_edge ~delta:e.delta ~alpha:e.alpha ~beta:e.beta
          ?bandwidth:e.bandwidth ~src:e.src ~dst:limiter g)
      g incoming
  in
  let g = Graph.add_edge ~delta:total_delta ~src:limiter ~dst:before g in
  (g, limiter)

(* ---- damped fixed-point iteration ----------------------------------- *)

type fixed_point_result = {
  value : float array;
  iterations : int;
  fp_converged : bool;
}

(* Convergence tolerance on the sup-norm residual, and the iteration cap. *)
let fixed_point_tol = 1e-9
let fixed_point_max_iter = 200

let fixed_point ~update x0 =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  (* [d] is the damping of the next step and [prev] the last residual:
     d starts undamped and halves whenever the residual fails to
     shrink. *)
  let rec go i d prev =
    if i >= fixed_point_max_iter then
      { value = x; iterations = i; fp_converged = false }
    else begin
      (* hand [update] its own copy so a mutating callee cannot corrupt
         the iterate mid-step *)
      let fx = update (Array.copy x) in
      if Array.length fx <> n then
        invalid_arg "Extensions.fixed_point: update changed the dimension";
      let residual = ref 0. in
      for k = 0 to n - 1 do
        if not (Float.is_finite fx.(k)) then
          invalid_arg "Extensions.fixed_point: update produced a non-finite value";
        residual := Float.max !residual (Float.abs (fx.(k) -. x.(k)))
      done;
      if !residual <= fixed_point_tol then
        { value = x; iterations = i + 1; fp_converged = true }
      else begin
        let d = if !residual >= prev then d /. 2. else d in
        for k = 0 to n - 1 do
          x.(k) <- ((1. -. d) *. x.(k)) +. (d *. fx.(k))
        done;
        go (i + 1) d !residual
      end
    end
  in
  go 0 1. infinity
