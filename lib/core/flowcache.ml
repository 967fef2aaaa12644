type spec = {
  flows : int;
  zipf : float;
  emc_entries : int;
  megaflow_entries : int;
  ttl : float option;
}

let emc_label = "emc"
let megaflow_label = "megaflow"

let spec ?ttl ?(zipf = 1.0) ?(emc_entries = 8192) ?(megaflow_entries = 65536)
    ~flows () =
  if flows < 1 then invalid_arg "Flowcache.spec: flows must be >= 1";
  if not (Float.is_finite zipf && zipf >= 0.) then
    invalid_arg "Flowcache.spec: zipf must be finite and >= 0";
  if emc_entries < 1 then
    invalid_arg "Flowcache.spec: emc_entries must be >= 1";
  if megaflow_entries < 1 then
    invalid_arg "Flowcache.spec: megaflow_entries must be >= 1";
  (match ttl with
  | Some t when not (Float.is_finite t && t > 0.) ->
    invalid_arg "Flowcache.spec: ttl must be finite and > 0"
  | _ -> ());
  { flows; zipf; emc_entries; megaflow_entries; ttl }

let zipf_weights ~flows ~s =
  if flows < 1 then invalid_arg "Flowcache.zipf_weights: flows must be >= 1";
  let w = Array.init flows (fun i -> float_of_int (i + 1) ** -.s) in
  let z = Array.fold_left ( +. ) 0. w in
  Array.map (fun x -> x /. z) w

(* Newton on f(T) = Σ(1 − exp(−rᵢT)) − C. f is increasing and concave,
   so starting from T₀ = C/Σrᵢ (where f ≤ 0, since 1 − e⁻ᵘ ≤ u) the
   iterates approach the root monotonically from below and never
   overshoot. Quadratic convergence: ~10 passes even at 10⁶ flows. *)
let che_characteristic_time ~rates ~capacity =
  if capacity < 1 then
    invalid_arg "Flowcache.che_characteristic_time: capacity must be >= 1";
  let n = Array.length rates in
  let total = Array.fold_left ( +. ) 0. rates in
  if n <= capacity || total <= 0. then infinity
  else begin
    let c = float_of_int capacity in
    let t = ref (c /. total) in
    (try
       for _ = 1 to 60 do
         let f = ref (-.c) and d = ref 0. in
         Array.iter
           (fun r ->
             let e = exp (-.r *. !t) in
             f := !f +. (1. -. e);
             d := !d +. (r *. e))
           rates;
         if Float.abs !f <= 1e-12 *. c || !d <= 0. then raise Exit;
         t := !t -. (!f /. !d)
       done
     with Exit -> ());
    !t
  end

let hit_ratios ?ttl ~rates ~capacity () =
  if capacity < 1 then invalid_arg "Flowcache.hit_ratios: capacity must be >= 1";
  let at t = Array.map (fun r -> 1. -. exp (-.r *. t)) rates in
  match ttl with
  | None ->
    let t = che_characteristic_time ~rates ~capacity in
    if t = infinity then Array.map (fun r -> if r > 0. then 1. else 0.) rates
    else at t
  | Some theta ->
    (* f is increasing, so an occupancy Σ(1 − exp(−rᵢθ)) within C means
       T ≥ θ: the TTL binds and the ratios at θ need no Newton solve. A
       population that fits never gets past this test, so T is finite
       below it. *)
    let h = at theta in
    if Array.fold_left ( +. ) 0. h <= float_of_int capacity then h
    else at (Float.min (che_characteristic_time ~rates ~capacity) theta)

type class_report = {
  klass : string;
  share : float;
  class_mean : float;
  class_p99 : float;
}

type result = {
  graph : Graph.t;
  emc_hit_ratio : float;
  megaflow_hit_ratio : float;
  overall_hit_ratio : float;
  iterations : int;
  converged : bool;
  throughput : Throughput.result;
  latency : Latency.result;
  classes : class_report list;
}

let cache_vertex g label =
  match Graph.find_vertex g ~label with
  | None ->
    invalid_arg
      (Printf.sprintf "Flowcache.evaluate: no vertex labelled %S" label)
  | Some v ->
    (match Graph.out_edges g v.Graph.id with
    | [ hit; miss ] -> (v.Graph.id, hit.Graph.dst, miss.Graph.dst)
    | outs ->
      invalid_arg
        (Printf.sprintf
           "Flowcache.evaluate: cache vertex %S needs exactly 2 out-edges \
            (hit then miss), found %d"
           label (List.length outs)))

(* Effective packet arrival rate at [vid]: offered packet rate × Σ over
   paths through [vid] of the path weight times the blocking survival
   Π(1 − Pro_N) of the vertices crossed before [vid]. *)
let stage_packet_rate (lat : Latency.result) ~packet_rate vid =
  let drop =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (t : Latency.vertex_terms) ->
        Hashtbl.replace tbl t.Latency.vid t.Latency.drop_probability)
      lat.Latency.per_vertex;
    fun id -> match Hashtbl.find_opt tbl id with Some p -> p | None -> 0.
  in
  let reach =
    List.fold_left
      (fun acc (p : Latency.path_report) ->
        let rec walk survival = function
          | [] -> 0.
          | u :: rest ->
            if u = vid then survival
            else walk (survival *. (1. -. drop u)) rest
        in
        acc +. (p.Latency.weight *. walk 1. p.Latency.path))
      0. lat.Latency.per_path
  in
  packet_rate *. reach

let evaluate ?queue_model ?init sp g ~hw ~traffic =
  let emc_v, _, _ = cache_vertex g emc_label in
  let mega_v, _, mega_miss_dst = cache_vertex g megaflow_label in
  let p = zipf_weights ~flows:sp.flows ~s:sp.zipf in
  let packet_rate = Traffic.packet_rate traffic in
  let apply g x =
    let g = Graph.scale_out_split g emc_v [ x.(0); 1. -. x.(0) ] in
    Graph.scale_out_split g mega_v [ x.(1); 1. -. x.(1) ]
  in
  (* Without a TTL the hit ratios are timescale invariant (u = rT), so
     the per-stage rates scale out of the Che solve entirely: resolve
     once and let the fixed point settle on the constant target. *)
  let solve ~r_emc ~r_mega =
    let emc_rates = Array.map (fun pi -> r_emc *. pi) p in
    let h_emc =
      hit_ratios ?ttl:sp.ttl ~rates:emc_rates ~capacity:sp.emc_entries ()
    in
    let agg_emc = ref 0. and miss_mass = ref 0. in
    let miss = Array.make sp.flows 0. in
    Array.iteri
      (fun i pi ->
        agg_emc := !agg_emc +. (pi *. h_emc.(i));
        let m = pi *. (1. -. h_emc.(i)) in
        miss.(i) <- m;
        miss_mass := !miss_mass +. m)
      p;
    let agg_mega =
      if !miss_mass <= 0. then 0.
      else begin
        let mega_rates =
          Array.map (fun m -> r_mega *. m /. !miss_mass) miss
        in
        let h_mega =
          hit_ratios ?ttl:sp.ttl ~rates:mega_rates
            ~capacity:sp.megaflow_entries ()
        in
        let acc = ref 0. in
        Array.iteri
          (fun i m -> acc := !acc +. (m /. !miss_mass *. h_mega.(i)))
          miss;
        !acc
      end
    in
    (* weighted means of ratios in [0, 1]; for a table that holds every
       flow, rounding can land an ulp above 1, which the next split
       would read as a negative miss share *)
    [| Float.min 1. !agg_emc; Float.min 1. agg_mega |]
  in
  let cached_static = ref None in
  let update x =
    match (sp.ttl, !cached_static) with
    | None, Some h -> h
    | _ ->
      let g' = apply g x in
      let lat = Latency.evaluate ?model:queue_model g' ~hw ~traffic in
      let r_emc = stage_packet_rate lat ~packet_rate emc_v in
      let r_mega = stage_packet_rate lat ~packet_rate mega_v in
      (* scale-invariance needs a strictly positive rate for the solve;
         the value is arbitrary in the no-TTL case *)
      let r_emc = if r_emc > 0. then r_emc else packet_rate in
      let r_mega = if r_mega > 0. then r_mega else packet_rate in
      let h = solve ~r_emc ~r_mega in
      if sp.ttl = None then cached_static := Some h;
      h
  in
  let x0 = match init with Some x -> x | None -> [| 0.5; 0.5 |] in
  if Array.length x0 <> 2 then
    invalid_arg "Flowcache.evaluate: init must have exactly 2 components";
  Array.iter
    (fun v ->
      if not (Float.is_finite v && v >= 0. && v <= 1.) then
        invalid_arg "Flowcache.evaluate: init components must lie in [0, 1]")
    x0;
  let fp = Extensions.fixed_point ~update x0 in
  let h_emc = fp.Extensions.value.(0) and h_mega = fp.Extensions.value.(1) in
  (* One plain evaluation of the converged graph produces the report —
     the same calls a static split would get, so the no-feedback case
     collapses to Estimate.run bit for bit. *)
  let g_final = apply g fp.Extensions.value in
  let throughput = Throughput.evaluate g_final ~hw ~traffic in
  let latency = Latency.evaluate ?model:queue_model g_final ~hw ~traffic in
  let tail = Tail.evaluate g_final ~hw ~traffic latency in
  let class_of path =
    if List.mem mega_miss_dst path then `Cold
    else if List.mem mega_v path then `Warm
    else `Hot
  in
  let p99_of =
    let tails = Tail.per_path tail in
    fun path ->
      match
        List.find_opt (fun (t : Tail.path_tail) -> t.Tail.tpath = path) tails
      with
      | Some t -> t.Tail.tq.Tail.p99
      | None -> nan
  in
  let classes =
    List.map
      (fun (name, tag) ->
        let members =
          List.filter
            (fun (pr : Latency.path_report) -> class_of pr.Latency.path = tag)
            latency.Latency.per_path
        in
        let share =
          List.fold_left
            (fun acc (pr : Latency.path_report) -> acc +. pr.Latency.weight)
            0. members
        in
        let wavg f =
          if share <= 0. then 0.
          else
            List.fold_left
              (fun acc (pr : Latency.path_report) ->
                acc +. (pr.Latency.weight *. f pr))
              0. members
            /. share
        in
        {
          klass = name;
          share;
          class_mean = wavg (fun pr -> pr.Latency.total);
          class_p99 = wavg (fun pr -> p99_of pr.Latency.path);
        })
      [ ("hot", `Hot); ("warm", `Warm); ("cold", `Cold) ]
  in
  {
    graph = g_final;
    emc_hit_ratio = h_emc;
    megaflow_hit_ratio = h_mega;
    overall_hit_ratio = h_emc +. ((1. -. h_emc) *. h_mega);
    iterations = fp.Extensions.iterations;
    converged = fp.Extensions.fp_converged;
    throughput;
    latency;
    classes;
  }
