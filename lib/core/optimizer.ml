module N = Lognic_numerics

type knob =
  | Vertex_throughput of Graph.vertex_id * float array
  | Queue_capacity of Graph.vertex_id * int * int
  | Out_split of Graph.vertex_id
  | Partition of Graph.vertex_id * float * float
  | Accel of Graph.vertex_id * float array
  | Ingress_rate of float * float

type objective =
  | Maximize_throughput
  | Minimize_latency
  | Minimize_latency_min_throughput of float
  | Maximize_throughput_max_latency of float

type assignment =
  | Set_throughput of Graph.vertex_id * float
  | Set_queue_capacity of Graph.vertex_id * int
  | Set_split of Graph.vertex_id * float list
  | Set_partition of Graph.vertex_id * float
  | Set_accel of Graph.vertex_id * float
  | Set_ingress_rate of float

type search_stats = { evaluations : int; memo_hits : int }

type observation = {
  sequence : int;
  candidate : assignment list;
  score : float;
  cache_hit : bool;
}

type solution = {
  graph : Graph.t;
  assignment : assignment list;
  report : Estimate.report;
  feasible : bool;
  stats : search_stats;
}

(* Graph-side effects of an assignment ([Set_ingress_rate] entries are
   ignored here — see {!apply_traffic}). *)
let apply_assignment g assignment =
  List.fold_left
    (fun g -> function
      | Set_throughput (id, p) ->
        Graph.update_service g id (fun s -> { s with Graph.throughput = p })
      | Set_queue_capacity (id, n) ->
        Graph.update_service g id (fun s -> { s with Graph.queue_capacity = n })
      | Set_split (id, fractions) -> Graph.scale_out_split g id fractions
      | Set_partition (id, gamma) ->
        Graph.update_service g id (fun s -> { s with Graph.partition = gamma })
      | Set_accel (id, a) ->
        Graph.update_service g id (fun s -> { s with Graph.accel = a })
      | Set_ingress_rate _ -> g)
    g assignment

let apply_traffic traffic assignment =
  List.fold_left
    (fun (t : Traffic.t) -> function
      | Set_ingress_rate rate -> { t with Traffic.rate }
      | Set_throughput _ | Set_queue_capacity _ | Set_split _ | Set_partition _
      | Set_accel _ ->
        t)
    traffic assignment

(* A large-but-finite constraint penalty: big enough to dominate any
   realistic latency (seconds) or negated throughput (-bytes/s). *)
let constraint_penalty = 1e15

(* Goals are judged on the model's goodput ({!Estimate.goodput}), so a
   configuration cannot "meet" a throughput bound by dropping packets. *)
let score objective (report : Estimate.report) =
  let attained = Estimate.goodput report in
  let latency = report.latency.Latency.mean in
  match objective with
  | Maximize_throughput -> -.attained
  | Minimize_latency -> latency
  | Minimize_latency_min_throughput bound ->
    let gap = Float.max 0. ((bound -. attained) /. bound) in
    latency +. (constraint_penalty *. gap)
  | Maximize_throughput_max_latency bound ->
    let excess = Float.max 0. ((latency -. bound) /. bound) in
    -.attained +. (constraint_penalty *. excess)

let feasible objective (report : Estimate.report) =
  match objective with
  | Maximize_throughput | Minimize_latency -> true
  | Minimize_latency_min_throughput bound ->
    Estimate.goodput report >= bound *. (1. -. 1e-6)
  | Maximize_throughput_max_latency bound ->
    report.latency.Latency.mean <= bound *. (1. +. 1e-6)

let validate_knobs g knobs =
  if knobs = [] then invalid_arg "Optimizer.optimize: no knobs";
  List.iter
    (function
      | Vertex_throughput (id, candidates) ->
        ignore (Graph.vertex g id);
        if Array.length candidates = 0 then
          invalid_arg "Optimizer: empty candidate array"
      | Queue_capacity (id, lo, hi) ->
        ignore (Graph.vertex g id);
        if lo < 1 || lo > hi then invalid_arg "Optimizer: bad capacity range"
      | Out_split id ->
        ignore (Graph.vertex g id);
        if List.length (Graph.out_edges g id) < 2 then
          invalid_arg "Optimizer: Out_split needs >= 2 out-edges"
      | Partition (id, lo, hi) ->
        ignore (Graph.vertex g id);
        if lo <= 0. || hi > 1. || lo > hi then
          invalid_arg "Optimizer: partition range outside (0, 1]"
      | Accel (id, candidates) ->
        ignore (Graph.vertex g id);
        if Array.length candidates = 0 then
          invalid_arg "Optimizer: empty accel candidates";
        if Array.exists (fun a -> a <= 0.) candidates then
          invalid_arg "Optimizer: accel candidates must be > 0"
      | Ingress_rate (lo, hi) ->
        if lo <= 0. || lo > hi then invalid_arg "Optimizer: bad ingress range")
    knobs

(* Continuous knobs map onto a flat vector; each knob owns a slice. *)
type slice = {
  knob_index : int;
  offset : int;
  width : int;
  lower : float;
  upper : float;
}

let continuous_layout knobs g =
  let slices = ref [] and offset = ref 0 in
  List.iteri
    (fun i -> function
      | Out_split id ->
        let width = List.length (Graph.out_edges g id) in
        slices :=
          { knob_index = i; offset = !offset; width; lower = 0.01; upper = 1. }
          :: !slices;
        offset := !offset + width
      | Partition (_, lo, hi) | Ingress_rate (lo, hi) ->
        slices :=
          { knob_index = i; offset = !offset; width = 1; lower = lo; upper = hi }
          :: !slices;
        offset := !offset + 1
      | Vertex_throughput _ | Queue_capacity _ | Accel _ -> ())
    knobs;
  (List.rev !slices, !offset)

let assignment_of_continuous knobs slices x =
  List.map
    (fun s ->
      match List.nth knobs s.knob_index with
      | Out_split id ->
        Set_split (id, Array.to_list (Array.sub x s.offset s.width))
      | Partition (id, _, _) -> Set_partition (id, x.(s.offset))
      | Ingress_rate _ -> Set_ingress_rate x.(s.offset)
      | Vertex_throughput _ | Queue_capacity _ | Accel _ -> assert false)
    slices

let discrete_axes knobs =
  List.filter_map
    (function
      | Vertex_throughput (id, candidates) ->
        Some (`Throughput (id, candidates), Array.length candidates)
      | Queue_capacity (id, lo, hi) -> Some (`Capacity (id, lo), hi - lo + 1)
      | Accel (id, candidates) -> Some (`Accel (id, candidates), Array.length candidates)
      | Out_split _ | Partition _ | Ingress_rate _ -> None)
    knobs

let assignment_of_discrete axes idx =
  List.mapi
    (fun d (axis, _) ->
      match axis with
      | `Throughput (id, candidates) -> Set_throughput (id, candidates.(idx.(d)))
      | `Capacity (id, lo) -> Set_queue_capacity (id, lo + idx.(d))
      | `Accel (id, candidates) -> Set_accel (id, candidates.(idx.(d))))
    axes

(* Canonical memo key: assignments sorted by (kind, vertex) and floats
   serialized by their IEEE bit pattern, so two assignments collide iff
   they produce the same graph and traffic. Nelder–Mead and
   golden-section refinement revisit configurations exactly (clamped
   boundary points, the final re-evaluation of the winning simplex
   vertex), and each hit skips a full
   [Throughput.evaluate]/[Latency.evaluate] pass. *)
let memo_key assignment =
  let rank = function
    | Set_throughput _ -> 0
    | Set_queue_capacity _ -> 1
    | Set_split _ -> 2
    | Set_partition _ -> 3
    | Set_accel _ -> 4
    | Set_ingress_rate _ -> 5
  in
  let vid = function
    | Set_throughput (id, _)
    | Set_queue_capacity (id, _)
    | Set_split (id, _)
    | Set_partition (id, _)
    | Set_accel (id, _) ->
      id
    | Set_ingress_rate _ -> -1
  in
  let cmp a b = compare (rank a, vid a) (rank b, vid b) in
  let b = Buffer.create 64 in
  let flt x =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
    Buffer.add_char b ','
  in
  let tag a =
    Buffer.add_char b (Char.chr (Char.code '0' + rank a));
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int (vid a));
    Buffer.add_char b '='
  in
  List.iter
    (fun a ->
      tag a;
      match a with
      | Set_throughput (_, p) -> flt p
      | Set_queue_capacity (_, n) ->
        Buffer.add_string b (string_of_int n);
        Buffer.add_char b ','
      | Set_split (_, fs) -> List.iter flt fs
      | Set_partition (_, gamma) -> flt gamma
      | Set_accel (_, a) -> flt a
      | Set_ingress_rate r -> flt r)
    (List.sort cmp assignment);
  Buffer.contents b

let optimize ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs objective =
  validate_knobs g knobs;
  let rng = N.Rng.create ~seed:42 in
  let slices, dim = continuous_layout knobs g in
  let axes = discrete_axes knobs in
  (* For one discrete choice, settle the continuous knobs (if any)
     through [evaluate]. [mrng] is that grid point's pre-split
     multi-start rng — split in enumeration order by the caller so
     parallel evaluation draws the exact sequence the sequential walk
     did. *)
  let solve_continuous evaluate mrng discrete_assignment =
    if dim = 0 then
      let s, g', report = evaluate discrete_assignment in
      (s, discrete_assignment, g', report)
    else begin
      let bounds default =
        let a = Array.make dim default in
        List.iter
          (fun s ->
            for i = s.offset to s.offset + s.width - 1 do
              a.(i) <- (if default = 0.01 then s.lower else s.upper)
            done)
          slices;
        a
      in
      let lower = bounds 0.01 and upper = bounds 1. in
      let problem =
        {
          N.Constrained.objective =
            (fun x ->
              (* The simplex may step outside the box; clamp before
                 applying so the graph update stays in-domain (the
                 penalty still discourages the excursion). *)
              let x = N.Vec.clamp ~lo:lower ~hi:upper x in
              let assignment =
                discrete_assignment @ assignment_of_continuous knobs slices x
              in
              let s, _, _ = evaluate assignment in
              s);
          inequality = [];
          lower;
          upper;
        }
      in
      let mrng =
        match mrng with Some r -> r | None -> assert false
      in
      let sol = N.Constrained.multi_start ~rng:mrng problem in
      let assignment =
        discrete_assignment @ assignment_of_continuous knobs slices sol.N.Constrained.x
      in
      let s, g', report = evaluate assignment in
      (s, assignment, g', report)
    end
  in
  (* One grid point, with its own memo: its hits are the continuous
     search's revisits and do not depend on which domain ran it or on
     what ran beside it. Returns the point's result, its evaluation
     and memo-hit counts, and, for an observer, its (candidate, score,
     cache hit) log in evaluation order. *)
  let solve_point mrng discrete_assignment =
    let memo = N.Lru.create ~capacity:4096 in
    let evaluations = ref 0 and hits = ref 0 and log = ref [] in
    let evaluate assignment =
      incr evaluations;
      let key = memo_key assignment in
      let ((s, _, _) as result), cache_hit =
        match N.Lru.find_opt memo key with
        | Some result ->
          incr hits;
          (result, true)
        | None ->
          let g' = apply_assignment g assignment in
          let traffic' = apply_traffic traffic assignment in
          let report = Estimate.run ?queue_model g' ~hw ~traffic:traffic' in
          let result = (score objective report, g', report) in
          N.Lru.add memo key result;
          (result, false)
      in
      if Option.is_some observer then log := (assignment, s, cache_hit) :: !log;
      result
    in
    let result = solve_continuous evaluate mrng discrete_assignment in
    (result, !evaluations, !hits, List.rev !log)
  in
  let split_for_point () = if dim = 0 then None else Some (N.Rng.split rng) in
  (* Points are folded in grid order in the calling domain: the
     observer sees, and numbers, every evaluation in that order. *)
  let best = ref None and evaluations = ref 0 and memo_hits = ref 0 in
  let consider (candidate, n, hits, log) =
    Option.iter
      (fun f ->
        List.iteri
          (fun i (candidate, score, cache_hit) ->
            f { sequence = !evaluations + i; candidate; score; cache_hit })
          log)
      observer;
    evaluations := !evaluations + n;
    memo_hits := !memo_hits + hits;
    match !best with
    | None -> best := Some candidate
    | Some (s, _, _, _) ->
      let s', _, _, _ = candidate in
      if s' < s then best := Some candidate
  in
  (if axes = [] then consider (solve_point (split_for_point ()) [])
   else begin
     (* Exhaustive grid over the discrete axes, evaluated [jobs]-wide:
        grid points are enumerated in odometer order (chunked so huge
        spaces never materialize at once), mapped in parallel, and
        folded in order with a strict [<] — the same winner the
        sequential [Grid.minimize_ints] walk picked. *)
     let ranges = Array.of_list (List.map (fun (_, n) -> (0, n - 1)) axes) in
     let total =
       Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 ranges
     in
     if total > 10_000_000 then
       invalid_arg "Optimizer.optimize: discrete search space too large";
     let n_axes = Array.length ranges in
     let current = Array.map fst ranges in
     let advance () =
       let rec go i =
         if i < 0 then false
         else begin
           let _, hi = ranges.(i) in
           if current.(i) < hi then begin
             current.(i) <- current.(i) + 1;
             true
           end
           else begin
             current.(i) <- fst ranges.(i);
             go (i - 1)
           end
         end
       in
       go (n_axes - 1)
     in
     let exhausted = ref false in
     while not !exhausted do
       let chunk = ref [] and filled = ref 0 in
       while (not !exhausted) && !filled < 1024 do
         chunk := (Array.copy current, split_for_point ()) :: !chunk;
         incr filled;
         if not (advance ()) then exhausted := true
       done;
       List.iter consider
         (N.Parallel.map ?jobs
            (fun (idx, mrng) -> solve_point mrng (assignment_of_discrete axes idx))
            (List.rev !chunk))
     done
   end);
  match !best with
  | None -> assert false
  | Some (_, assignment, graph, report) ->
    {
      graph;
      assignment;
      report;
      feasible = feasible objective report;
      stats = { evaluations = !evaluations; memo_hits = !memo_hits };
    }

let pareto ?queue_model ?jobs ?observer ?(points = 8) g ~hw ~traffic ~knobs =
  (* anchor the bound range at the two single-objective extremes *)
  let fastest =
    optimize ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs
      Minimize_latency
  in
  let widest =
    optimize ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs
      Maximize_throughput
  in
  let lo = fastest.report.latency.Latency.mean in
  let hi = widest.report.latency.Latency.mean in
  if not (Float.is_finite lo && lo > 0.) then
    invalid_arg "Optimizer.pareto: degenerate latency range";
  let hi = Float.max (lo *. 1.001) (if Float.is_finite hi then hi else lo *. 100.) in
  let bounds =
    List.init points (fun i ->
        let t = float_of_int i /. float_of_int (max 1 (points - 1)) in
        lo *. ((hi /. lo) ** t))
  in
  List.filter_map
    (fun bound ->
      let s =
        optimize ?queue_model ?jobs ?observer g ~hw ~traffic ~knobs
          (Maximize_throughput_max_latency bound)
      in
      if s.feasible then Some (bound, s) else None)
    bounds

let pp_assignment ppf = function
  | Set_throughput (id, p) -> Fmt.pf ppf "vertex %d: P <- %.4g B/s" id p
  | Set_queue_capacity (id, n) -> Fmt.pf ppf "vertex %d: N <- %d" id n
  | Set_split (id, fs) ->
    let total = List.fold_left ( +. ) 0. fs in
    Fmt.pf ppf "vertex %d: split <- [%a]" id
      Fmt.(list ~sep:(any "; ") (fun ppf f -> Fmt.pf ppf "%.3f" (f /. total)))
      fs
  | Set_partition (id, gamma) -> Fmt.pf ppf "vertex %d: gamma <- %.3f" id gamma
  | Set_accel (id, a) -> Fmt.pf ppf "vertex %d: A <- %.3f" id a
  | Set_ingress_rate rate -> Fmt.pf ppf "BW_in <- %.4g B/s" rate
