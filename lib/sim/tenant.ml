type spec = {
  name : string;
  weight : int;
  share : float;
  slo_p99 : float option;
}

let spec ?(weight = 1) ?(share = 1.) ?slo_p99 name =
  if name = "" then invalid_arg "Tenant.spec: empty name";
  if weight < 1 then invalid_arg "Tenant.spec: weight must be >= 1";
  if share <= 0. || not (Float.is_finite share) then
    invalid_arg "Tenant.spec: share must be finite and > 0";
  (match slo_p99 with
  | Some s when not (s > 0. && Float.is_finite s) ->
    invalid_arg "Tenant.spec: slo must be finite and > 0"
  | _ -> ());
  { name; weight; share; slo_p99 }

type set = {
  t_specs : spec array;  (* canonical: sorted by name, names unique *)
  t_prob : int array;
      (* Walker alias table: bucket [j] accepts itself when the low
         draw bits fall under [t_prob.(j)] (threshold on [0, 2^30]) *)
  t_alias : int array;  (* ... and redirects to [t_alias.(j)] otherwise *)
}

let bits_range = 1 lsl 30

let set specs =
  if specs = [] then invalid_arg "Tenant.set: no tenants";
  let arr = Array.of_list specs in
  Array.sort (fun a b -> String.compare a.name b.name) arr;
  Array.iteri
    (fun i s ->
      if i > 0 && String.equal arr.(i - 1).name s.name then
        invalid_arg
          (Printf.sprintf "Tenant.set: duplicate tenant name %S" s.name))
    arr;
  let total = Array.fold_left (fun acc s -> acc +. s.share) 0. arr in
  let cumulative = Array.make (Array.length arr) 0. in
  let running = ref 0. in
  Array.iteri
    (fun i s ->
      running := !running +. (s.share /. total);
      cumulative.(i) <- !running)
    arr;
  (* Pin the last edge so a draw of 1 − ε can never fall off the end of
     the distribution whatever the rounding of the partial sums. *)
  cumulative.(Array.length arr - 1) <- 1.;
  (* The edges scaled to the 30-bit integer lattice (last = 2^30), so
     the per-arrival draw is one [Rng.bits]. *)
  let cum_bits =
    Array.map (fun c -> int_of_float (c *. float_of_int bits_range)) cumulative
  in
  cum_bits.(Array.length arr - 1) <- bits_range;
  (* Walker alias table over the lattice masses. A binary search over
     the cumulative edges costs log₂ n data-dependent branches per
     draw, and on random input every one is a coin-flip the branch
     predictor loses — ~4× the arithmetic cost at n = 16. The alias
     table replaces that with one multiply, two loads and a single
     compare. Construction is the classic two-stack split of buckets
     below/above the mean, in exact integer arithmetic (masses scaled
     by [n] so the mean is exactly [bits_range], and the leftovers
     land on it exactly). *)
  let n = Array.length arr in
  let prob = Array.make n bits_range in
  let alias = Array.init n (fun i -> i) in
  let w =
    Array.init n (fun i ->
        n * (cum_bits.(i) - if i = 0 then 0 else cum_bits.(i - 1)))
  in
  let small = ref [] and large = ref [] in
  for i = n - 1 downto 0 do
    if w.(i) < bits_range then small := i :: !small else large := i :: !large
  done;
  let rec pair small large =
    match (small, large) with
    | l :: small, g :: large ->
        prob.(l) <- w.(l);
        alias.(l) <- g;
        w.(g) <- w.(g) - (bits_range - w.(l));
        if w.(g) < bits_range then pair (g :: small) large
        else pair small (g :: large)
    | rest, [] | [], rest -> List.iter (fun i -> prob.(i) <- bits_range) rest
  in
  pair !small !large;
  { t_specs = arr; t_prob = prob; t_alias = alias }

let uniform ?(prefix = "vf") n =
  if n < 1 then invalid_arg "Tenant.uniform: need at least one tenant";
  set (List.init n (fun i -> spec (Printf.sprintf "%s%04d" prefix i)))

let count t = Array.length t.t_specs
let weights t = Array.map (fun s -> s.weight) t.t_specs

let shares t =
  let total = Array.fold_left (fun acc s -> acc +. s.share) 0. t.t_specs in
  Array.map (fun s -> s.share /. total) t.t_specs

(* The simulator's per-arrival path: O(1) alias-table lookup on a
   [Rng.bits] draw. [u * n] splits the 30-bit draw into a bucket index
   (high bits) and an acceptance threshold (low bits) — one shared
   draw, with per-tenant probabilities accurate to n·2^-30. *)
let[@inline] index_of_bits t u =
  let m = u * Array.length t.t_specs in
  let j = m lsr 30 in
  if m land (bits_range - 1) < t.t_prob.(j) then j else t.t_alias.(j)

(* ---- summaries ------------------------------------------------------- *)

type row = {
  r_name : string;
  r_weight : int;
  r_share : float;
  r_offered : int;
  r_delivered : int;
  r_dropped : int;
  r_delivered_bytes : float;
  r_offered_rate : float;
  r_throughput : float;
  r_mean_latency : float;
  r_p99_latency : float;
  r_max_latency : float;
  r_terms : Telemetry.latency_terms;
  r_slo_p99 : float option;
  r_slo_ok : bool option;
}

type fairness = {
  maxmin_ratio : float;
  jain : float;
  interference : float;
}

type stats = {
  t_window : float;
  rows : row array;
  t_fairness : fairness;
}

let fairness_of set tbl ~window =
  let module T = Telemetry.Table in
  let n = count set in
  if window <= 0. then { maxmin_ratio = 1.; jain = 1.; interference = 1. }
  else begin
    let attained = Array.init n (fun i -> T.delivered_bytes tbl i /. window) in
    let demanded = Array.init n (fun i -> T.offered_bytes tbl i /. window) in
    let total_attained = Array.fold_left ( +. ) 0. attained in
    let w = Array.map (fun s -> float_of_int s.weight) set.t_specs in
    (* Weighted max-min reference allocation of the carried capacity
       across the offered demands; a constrained tenant (demand above
       its fair share) falling short of that share is an isolation
       failure. *)
    let maxmin_ratio =
      if total_attained <= 0. then 1.
      else begin
        let fair =
          Lognic_queueing.Wmmcn.weighted_shares ~capacity:total_attained
            ~weights:w ~demands:demanded
        in
        let worst = ref 1. in
        for i = 0 to n - 1 do
          if demanded.(i) > fair.(i) && fair.(i) > 0. then begin
            let ratio = attained.(i) /. fair.(i) in
            if ratio < !worst then worst := ratio
          end
        done;
        !worst
      end
    in
    let jain =
      let sum = ref 0. and sumsq = ref 0. and active = ref 0 in
      for i = 0 to n - 1 do
        if demanded.(i) > 0. then begin
          let x = attained.(i) /. w.(i) in
          sum := !sum +. x;
          sumsq := !sumsq +. (x *. x);
          incr active
        end
      done;
      if !active = 0 || !sumsq <= 0. then 1.
      else !sum *. !sum /. (float_of_int !active *. !sumsq)
    in
    let interference =
      let best = ref infinity and worst = ref 0. in
      for i = 0 to n - 1 do
        if T.delivered tbl i > 0 then begin
          let mean = T.mean_latency tbl i in
          if mean < !best then best := mean;
          if mean > !worst then worst := mean
        end
      done;
      if !best = infinity || !best <= 0. then 1. else !worst /. !best
    in
    { maxmin_ratio; jain; interference }
  end

let window_of tbl ~horizon =
  Float.max 0. (horizon -. Telemetry.Table.cutoff tbl)

let live_fairness set tbl ~horizon =
  fairness_of set tbl ~window:(window_of tbl ~horizon)

let summarize set tbl ~horizon =
  let module T = Telemetry.Table in
  let window = window_of tbl ~horizon in
  let shares = shares set in
  let rate bytes = if window > 0. then bytes /. window else 0. in
  let rows =
    Array.mapi
      (fun i s ->
        let delivered = T.delivered tbl i in
        let p99 = T.p99 tbl i in
        {
          r_name = s.name;
          r_weight = s.weight;
          r_share = shares.(i);
          r_offered = T.offered tbl i;
          r_delivered = delivered;
          r_dropped = T.dropped tbl i;
          r_delivered_bytes = T.delivered_bytes tbl i;
          r_offered_rate = rate (T.offered_bytes tbl i);
          r_throughput = rate (T.delivered_bytes tbl i);
          r_mean_latency = T.mean_latency tbl i;
          r_p99_latency = p99;
          r_max_latency = T.max_latency tbl i;
          r_terms = T.mean_terms tbl i;
          r_slo_p99 = s.slo_p99;
          r_slo_ok =
            (match s.slo_p99 with
            | Some slo when delivered > 0 -> Some (p99 <= slo)
            | _ -> None);
        })
      set.t_specs
  in
  { t_window = window; rows; t_fairness = fairness_of set tbl ~window }

let row_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("name", J.Str r.r_name);
      ("weight", J.Num (float_of_int r.r_weight));
      ("share", J.Num r.r_share);
      ("offered", J.Num (float_of_int r.r_offered));
      ("delivered", J.Num (float_of_int r.r_delivered));
      ("dropped", J.Num (float_of_int r.r_dropped));
      ("delivered_bytes", J.Num r.r_delivered_bytes);
      ("offered_rate", J.Num r.r_offered_rate);
      ("throughput", J.Num r.r_throughput);
      ("mean_latency", J.Num r.r_mean_latency);
      ("p99_latency", J.Num r.r_p99_latency);
      ("max_latency", J.Num r.r_max_latency);
      ("latency_terms", Telemetry.terms_to_json r.r_terms);
      ( "slo_p99",
        match r.r_slo_p99 with None -> J.Null | Some s -> J.Num s );
      ( "slo_ok",
        match r.r_slo_ok with None -> J.Null | Some ok -> J.Bool ok );
    ]

let stats_to_json t =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("window", J.Num t.t_window);
      ("tenants", J.Arr (Array.to_list (Array.map row_to_json t.rows)));
      ( "fairness",
        J.Obj
          [
            ("maxmin_ratio", J.Num t.t_fairness.maxmin_ratio);
            ("jain", J.Num t.t_fairness.jain);
            ("interference", J.Num t.t_fairness.interference);
          ] );
    ]
