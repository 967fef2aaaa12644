(* Per-packet flow identity and the two-level flow cache (EMC →
   megaflow → slow path) behind the simulator's state-dependent routing.

   Everything on the per-packet path is O(1) and allocation-free: the
   flow draw is a Walker alias lookup on one [Rng.bits] draw (the
   tenant sampler's construction, scaled to flow populations in the
   millions — masses are n·Δbits ≤ 2^50, comfortably inside 63-bit
   ints), and each cache is a fixed-capacity int-array LRU (doubly
   linked recency list + chained hash buckets, lazy TTL expiry), so the
   steady-state hot loop never allocates per flow. *)

module N = Lognic_numerics
module FC = Lognic.Flowcache

let classes = 3
let class_names = [| "hot"; "warm"; "cold" |]

(* ---- Zipf alias sampler --------------------------------------------- *)

let bits_range = 1 lsl 30

type sampler = { s_n : int; s_prob : int array; s_alias : int array }

let sampler ~flows ~zipf =
  let p = FC.zipf_weights ~flows ~s:zipf in
  let n = flows in
  let cum_bits = Array.make n 0 in
  let running = ref 0. in
  Array.iteri
    (fun i pi ->
      running := !running +. pi;
      cum_bits.(i) <- int_of_float (!running *. float_of_int bits_range))
    p;
  (* pin the last edge: a 30-bit draw can never fall off the end *)
  cum_bits.(n - 1) <- bits_range;
  let prob = Array.make n bits_range in
  let alias = Array.init n (fun i -> i) in
  let w =
    Array.init n (fun i ->
        n * (cum_bits.(i) - if i = 0 then 0 else cum_bits.(i - 1)))
  in
  (* two-stack split in exact integer arithmetic, array-backed so a
     million-flow build does not cons a million list cells *)
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if w.(i) < bits_range then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    let l = small.(!ns) in
    let g = large.(!nl - 1) in
    prob.(l) <- w.(l);
    alias.(l) <- g;
    w.(g) <- w.(g) - (bits_range - w.(l));
    if w.(g) < bits_range then begin
      decr nl;
      small.(!ns) <- g;
      incr ns
    end
  done;
  (* leftovers on either stack sit exactly on the mean *)
  { s_n = n; s_prob = prob; s_alias = alias }

let[@inline] sample s u =
  let m = u * s.s_n in
  let j = m lsr 30 in
  if m land (bits_range - 1) < s.s_prob.(j) then j else s.s_alias.(j)

(* ---- fixed-capacity int-array LRU ----------------------------------- *)

(* Slots 0..cap-1; [-1] is the null index throughout. The recency list
   is doubly linked ([l_prev]/[l_next], head = MRU); hash chains are
   singly linked ([h_next]) from power-of-two [buckets]. [stamp] holds
   the last-access time for the lazy TTL check. *)
type lru = {
  cap : int;
  mask : int;
  buckets : int array;
  key : int array;
  h_next : int array;
  l_prev : int array;
  l_next : int array;
  stamp : float array;
  mutable head : int;
  mutable tail : int;
  mutable used : int;
}

let lru_create cap =
  if cap < 1 then invalid_arg "Flow_cache: capacity must be >= 1";
  let size = ref 1 in
  while !size < 2 * cap do
    size := !size * 2
  done;
  {
    cap;
    mask = !size - 1;
    buckets = Array.make !size (-1);
    key = Array.make cap (-1);
    h_next = Array.make cap (-1);
    l_prev = Array.make cap (-1);
    l_next = Array.make cap (-1);
    stamp = Array.make cap 0.;
    head = -1;
    tail = -1;
    used = 0;
  }

let[@inline] hash_of t k = (k * 0x9E3779B1) land t.mask

(* unlink slot [i] from its hash chain (O(chain), expected O(1) at load
   factor <= 1/2) *)
let chain_remove t i =
  let b = hash_of t t.key.(i) in
  if t.buckets.(b) = i then t.buckets.(b) <- t.h_next.(i)
  else begin
    let p = ref t.buckets.(b) in
    while t.h_next.(!p) <> i do
      p := t.h_next.(!p)
    done;
    t.h_next.(!p) <- t.h_next.(i)
  end;
  t.h_next.(i) <- -1

let list_unlink t i =
  let p = t.l_prev.(i) and n = t.l_next.(i) in
  if p >= 0 then t.l_next.(p) <- n else t.head <- n;
  if n >= 0 then t.l_prev.(n) <- p else t.tail <- p;
  t.l_prev.(i) <- -1;
  t.l_next.(i) <- -1

let list_push_front t i =
  t.l_prev.(i) <- -1;
  t.l_next.(i) <- t.head;
  if t.head >= 0 then t.l_prev.(t.head) <- i else t.tail <- i;
  t.head <- i

(* Look [k] up; a hit refreshes recency and the TTL stamp. An entry
   idle past [ttl] is removed and reported as a miss (lazy expiry). *)
let lru_find t ?ttl ~now k =
  let b = hash_of t k in
  let rec walk i =
    if i < 0 then false
    else if t.key.(i) = k then begin
      match ttl with
      | Some theta when now -. t.stamp.(i) > theta ->
        chain_remove t i;
        list_unlink t i;
        t.key.(i) <- -1;
        (* recycle the slot through the recency tail so insert finds it *)
        t.l_next.(i) <- -1;
        t.l_prev.(i) <- t.tail;
        if t.tail >= 0 then t.l_next.(t.tail) <- i else t.head <- i;
        t.tail <- i;
        false
      | _ ->
        t.stamp.(i) <- now;
        if t.head <> i then begin
          list_unlink t i;
          list_push_front t i
        end;
        true
    end
    else walk t.h_next.(i)
  in
  walk t.buckets.(b)

(* Insert [k] (must not be present): reuse a free slot while the table
   is filling, then evict the LRU tail. *)
let lru_insert t ~now k =
  let i =
    if t.used < t.cap then begin
      let i = t.used in
      t.used <- t.used + 1;
      i
    end
    else begin
      let i = t.tail in
      if t.key.(i) >= 0 then chain_remove t i;
      list_unlink t i;
      i
    end
  in
  t.key.(i) <- k;
  t.stamp.(i) <- now;
  let b = hash_of t k in
  t.h_next.(i) <- t.buckets.(b);
  t.buckets.(b) <- i;
  list_push_front t i

(* ---- the runtime state ---------------------------------------------- *)

type t = {
  fc_spec : FC.spec;
  fc_warmup : float;
  fc_sampler : sampler;
  emc : lru;
  mega : lru;
  mutable emc_lookups : int;
  mutable emc_hit_count : int;
  mutable mega_lookups : int;
  mutable mega_hit_count : int;
  fc_table : Telemetry.Table.t;  (* one row per class *)
}

let create ~(spec : FC.spec) ~warmup =
  {
    fc_spec = spec;
    fc_warmup = warmup;
    fc_sampler = sampler ~flows:spec.FC.flows ~zipf:spec.FC.zipf;
    emc = lru_create spec.FC.emc_entries;
    mega = lru_create spec.FC.megaflow_entries;
    emc_lookups = 0;
    emc_hit_count = 0;
    mega_lookups = 0;
    mega_hit_count = 0;
    fc_table = Telemetry.Table.create ~rows:classes ~cutoff:warmup;
  }

let table t = t.fc_table

let roles (spec : FC.spec) g =
  let module G = Lognic.Graph in
  let roles = Array.make (G.vertex_count g) 0 in
  let resolve role label =
    match G.find_vertex g ~label with
    | None ->
      invalid_arg (Printf.sprintf "Netsim.run: flow cache needs a vertex %S" label)
    | Some v ->
      let outs = List.length (G.out_edges g v.G.id) in
      if outs <> 2 then
        invalid_arg
          (Printf.sprintf
             "Netsim.run: flow-cache vertex %S needs exactly 2 out-edges (hit, \
              miss), has %d"
             label outs);
      roles.(v.G.id) <- role
  in
  resolve 1 spec.FC.emc_label;
  resolve 2 spec.FC.megaflow_label;
  roles

let[@inline] draw t ~bits = sample t.fc_sampler bits

(* Lookup counters follow the arrival windowing convention: counted by
   the lookup's own time, so the measured hit ratio covers exactly the
   post-warmup reference stream. *)

let emc_lookup t ~now ~flow =
  let hit = lru_find t.emc ?ttl:t.fc_spec.FC.ttl ~now flow in
  if now >= t.fc_warmup then begin
    t.emc_lookups <- t.emc_lookups + 1;
    if hit then t.emc_hit_count <- t.emc_hit_count + 1
  end;
  hit

(* An EMC miss consults the megaflow table. A megaflow hit promotes the
   flow into the EMC; a megaflow miss is a slow-path classification,
   which installs the flow in both tables on its way back. *)
let mega_lookup t ~now ~flow =
  let hit = lru_find t.mega ?ttl:t.fc_spec.FC.ttl ~now flow in
  if now >= t.fc_warmup then begin
    t.mega_lookups <- t.mega_lookups + 1;
    if hit then t.mega_hit_count <- t.mega_hit_count + 1
  end;
  if hit then lru_insert t.emc ~now flow
  else begin
    lru_insert t.mega ~now flow;
    lru_insert t.emc ~now flow
  end;
  hit

(* ---- summaries ------------------------------------------------------- *)

type class_row = {
  c_name : string;
  c_share : float;  (** fraction of classified delivered packets *)
  c_count : int;
  c_throughput : float;  (** bytes/s over the measurement window *)
  c_mean_latency : float;
  c_p99_latency : float;
  c_max_latency : float;
}

type stats = {
  fc_window : float;
  fc_flows : int;
  fc_zipf : float;
  fc_emc_entries : int;
  fc_megaflow_entries : int;
  fc_emc_lookups : int;
  fc_emc_hits : int;
  fc_mega_lookups : int;
  fc_mega_hits : int;
  fc_emc_hit_ratio : float;
  fc_mega_hit_ratio : float;  (** conditional, among EMC misses *)
  fc_overall_hit_ratio : float;
  fc_classes : class_row array;  (** hot, warm, cold *)
}

let summarize t ~horizon =
  let module T = Telemetry.Table in
  let window = Float.max 0. (horizon -. t.fc_warmup) in
  let tbl = t.fc_table in
  let counts = Array.init classes (T.delivered tbl) in
  let total = Array.fold_left ( + ) 0 counts in
  let rows =
    Array.init classes (fun k ->
        let d = counts.(k) in
        {
          c_name = class_names.(k);
          c_share =
            (if total = 0 then 0. else float_of_int d /. float_of_int total);
          c_count = d;
          c_throughput =
            (if window > 0. then T.delivered_bytes tbl k /. window else 0.);
          c_mean_latency = T.mean_latency tbl k;
          c_p99_latency = T.p99 tbl k;
          c_max_latency = T.max_latency tbl k;
        })
  in
  let ratio hits lookups =
    if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups
  in
  let emc_r = ratio t.emc_hit_count t.emc_lookups in
  let mega_r = ratio t.mega_hit_count t.mega_lookups in
  {
    fc_window = window;
    fc_flows = t.fc_spec.FC.flows;
    fc_zipf = t.fc_spec.FC.zipf;
    fc_emc_entries = t.fc_spec.FC.emc_entries;
    fc_megaflow_entries = t.fc_spec.FC.megaflow_entries;
    fc_emc_lookups = t.emc_lookups;
    fc_emc_hits = t.emc_hit_count;
    fc_mega_lookups = t.mega_lookups;
    fc_mega_hits = t.mega_hit_count;
    fc_emc_hit_ratio = emc_r;
    fc_mega_hit_ratio = mega_r;
    fc_overall_hit_ratio =
      ratio (t.emc_hit_count + t.mega_hit_count) t.emc_lookups;
    fc_classes = rows;
  }

let class_row_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("name", J.Str r.c_name);
      ("share", J.Num r.c_share);
      ("delivered", J.Num (float_of_int r.c_count));
      ("throughput", J.Num r.c_throughput);
      ("mean_latency", J.Num r.c_mean_latency);
      ("p99_latency", J.Num r.c_p99_latency);
      ("max_latency", J.Num r.c_max_latency);
    ]

let stats_to_json s =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("window", J.Num s.fc_window);
      ("flows", J.Num (float_of_int s.fc_flows));
      ("zipf", J.Num s.fc_zipf);
      ("emc_entries", J.Num (float_of_int s.fc_emc_entries));
      ("megaflow_entries", J.Num (float_of_int s.fc_megaflow_entries));
      ("emc_lookups", J.Num (float_of_int s.fc_emc_lookups));
      ("emc_hits", J.Num (float_of_int s.fc_emc_hits));
      ("mega_lookups", J.Num (float_of_int s.fc_mega_lookups));
      ("mega_hits", J.Num (float_of_int s.fc_mega_hits));
      ("emc_hit_ratio", J.Num s.fc_emc_hit_ratio);
      ("mega_hit_ratio", J.Num s.fc_mega_hit_ratio);
      ("overall_hit_ratio", J.Num s.fc_overall_hit_ratio);
      ( "classes",
        J.Arr (Array.to_list (Array.map class_row_to_json s.fc_classes)) );
    ]
