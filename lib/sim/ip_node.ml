type service_dist = Deterministic | Exponential

(* Pending requests live in per-queue ring buffers stored
   struct-of-arrays: work and submission times in unboxed float arrays,
   per-hop ledgers and continuations in parallel pointer arrays. Pushing
   a request is four array stores — no record, no list cell — and the
   rings only ever grow (amortized), so steady state allocates
   nothing. *)
type ring = {
  mutable r_work : float array;
  mutable r_sub : float array;
  mutable r_hop : Hop.t option array;
  mutable r_k : (unit -> unit) array;
  mutable r_head : int;
  mutable r_len : int;
}

let noop () = ()

(* [slots] must be a power of two (the head/tail arithmetic masks with
   [cap - 1]); rings double on demand, so the initial size only sets
   the resident footprint. A single-queue node gets 16 slots up front;
   grouped nodes get 4 per queue — per-tenant queues hold a couple of
   entries outside bursts, and at hundreds of VFs a generous ring per
   queue turns the arbiter's scattered per-tenant accesses into a
   cache-miss tax on every grant. *)
let ring_create slots =
  {
    r_work = Array.make slots 0.;
    r_sub = Array.make slots 0.;
    r_hop = Array.make slots None;
    r_k = Array.make slots noop;
    r_head = 0;
    r_len = 0;
  }

let ring_grow r =
  let cap = Array.length r.r_k in
  let bigger = 2 * cap in
  let work = Array.make bigger 0. in
  let sub = Array.make bigger 0. in
  let hop = Array.make bigger None in
  let k = Array.make bigger noop in
  for i = 0 to r.r_len - 1 do
    let j = (r.r_head + i) land (cap - 1) in
    work.(i) <- r.r_work.(j);
    sub.(i) <- r.r_sub.(j);
    hop.(i) <- r.r_hop.(j);
    k.(i) <- r.r_k.(j)
  done;
  r.r_work <- work;
  r.r_sub <- sub;
  r.r_hop <- hop;
  r.r_k <- k;
  r.r_head <- 0

type t = {
  engine : Engine.t;
  rng : Lognic_numerics.Rng.t;
  label : string;
  engines : int;
  rate_per_engine : float;
  entries_per_queue : int;
  service_dist : service_dist;
  queues : ring array;
  mutable queued_total : int;
      (* requests across all rings: the O(1) idle check that lets
         dispatch skip the WRR scan entirely when nothing is queued *)
  drops_per_queue : int array;
  (* Hierarchical (group → queue) scheduling state, the SR-IOV two-stage
     arbiter: queue [g·queues_per_group + c] is group [g]'s class-[c]
     queue. Stage 1 is packet-granular weighted round robin over the
     intrusive doubly-linked ring of {e active} groups (groups with at
     least one queued request): the current group serves up to
     [grp_weight] requests per visit ([grp_credit] counts down), then
     the ring advances. Stage 2 is the per-group expanded-pattern WRR
     over that group's class queues. Both stages are int-array state
     sized at construction, so dispatching with thousands of groups
     costs O(1) per grant and allocates nothing. [groups = 0] means
     flat mode: one queue under the M/M/n/N convention (capacity counts
     queued + in-service requests), none of these fields consulted, and
     one integer compare per dispatch/submit on the flat hot path. *)
  groups : int;
  queues_per_group : int;
  queue_group : int array;
      (* queue index → owning group, precomputed so the per-submit and
         per-grant paths never pay an integer division *)
  fast_grant : bool;
      (* Whether a submit that finds the node idle (nothing queued, an
         engine free) may start service directly, skipping the queue
         push/pop and scheduler bookkeeping. Only set when the bypass
         is {e exactly} equivalent to enqueue-then-grant: flat nodes, and
         hierarchical nodes with one class queue per group, where
         activating a group and immediately granting its only request
         returns the active ring to empty, leaves the stage-2 cursor
         untouched, and strands a credit value that the next
         activation overwrites — no reachable state differs. Several
         class queues per group stay ineligible: the stage-2 cursor
         advances per grant, observably. *)
  grp_weight : int array;
  grp_credit : int array;
  grp_queued : int array;
  grp_next : int array;
  grp_prev : int array;
  mutable grp_cur : int;  (* current active group; -1 when ring empty *)
  grp_pat : int array array;  (* per-group expanded class-WRR pattern *)
  grp_cursor : int array;
  mutable offline : int;
      (* engines held down by fault injection; in-flight services finish
         even when their engine goes offline mid-service *)
  mutable capacity_override : int option;
      (* fault-injection queue shrink, min-combined with the configured
         capacity at admission time *)
  mutable busy_engines : int;
  mutable completions : int;
  fb : float array;  (* unboxed: 0 = cumulative scheduled busy time, 1 = scratch *)
  ifl : float array;
      (* completion times of services still running, newest last — the
         old [in_flight] list with its exact element order (and thus
         the exact float summation order of [busy_within]) replicated
         in a fixed [engines]-slot array *)
  mutable ifl_len : int;
  (* Service-completion slots, pooled per node ([engines] of them, the
     maximum concurrency): each slot carries the finish time and
     downstream continuation of one running service, and [sv_fire] is
     its completion closure built once at node creation — scheduling a
     completion allocates nothing. A slot is held for exactly one
     service, so its index is the engine lane a trace shows. *)
  sv_finish : float array;
  sv_k : (unit -> unit) array;
  sv_fire : (unit -> unit) array;
  sv_free : int array;
  mutable sv_free_top : int;
  mutable prof : Profile.t option;
      (* self-profiler hook ({!Metrics}); [None] costs one pointer
         compare per dispatch/completion entry *)
}

let expand_pattern weights =
  let total = Array.fold_left ( + ) 0 weights in
  let pattern = Array.make total 0 in
  let pos = ref 0 in
  Array.iteri
    (fun q w ->
      for _ = 1 to w do
        pattern.(!pos) <- q;
        incr pos
      done)
    weights;
  pattern

let label t = t.label
let engines t = t.engines
let queue_count t = Array.length t.queues
let in_system t = t.busy_engines + t.queued_total

let busy_engines t = t.busy_engines

let drops t = Array.fold_left ( + ) 0 t.drops_per_queue

let drops_of_queue t i =
  if i < 0 || i >= Array.length t.drops_per_queue then
    invalid_arg "Ip_node.drops_of_queue: bad queue index";
  t.drops_per_queue.(i)

let completions t = t.completions

(* Clip scheduled busy time to the [\[0, until\]] window: every service
   still in flight at query time started at or before the horizon,
   so its overrun past [until] is exactly [end - until]. Without the
   clip, service durations extending past the horizon count fully and
   utilization can exceed 1 for an overloaded node. Newest-first, the
   old list's fold order, so the float rounding matches exactly. *)
let busy_within t ~until =
  let acc = ref t.fb.(0) in
  for i = t.ifl_len - 1 downto 0 do
    acc := !acc -. Float.max 0. (t.ifl.(i) -. until)
  done;
  !acc

let utilization t ~until =
  if until <= 0. then 0.
  else Float.max 0. (busy_within t ~until) /. (float_of_int t.engines *. until)

let[@inline] service_time t work =
  let mean = work /. t.rate_per_engine in
  match t.service_dist with
  | Deterministic -> mean
  | Exponential ->
    if mean <= 0. then 0.
    else Lognic_numerics.Dist.sample_exponential ~rate:(1. /. mean) t.rng

(* Drop the first (newest-first) entry equal to [finish] — the old
   [remove_first] on the cons list, element order preserved. The target
   time rides in the [fb] scratch slot and the scan is a top-level
   recursion over an int index: inlined at the per-completion call
   site, this removes both the boxed [finish] argument and the [ref]
   cell the old while-loop allocated. *)
let rec rif_scan t i =
  if i >= 0 && t.ifl.(i) <> t.fb.(1) then rif_scan t (i - 1) else i

let[@inline] remove_in_flight t finish =
  t.fb.(1) <- finish;
  let i = rif_scan t (t.ifl_len - 1) in
  if i >= 0 then begin
    for j = i to t.ifl_len - 2 do
      t.ifl.(j) <- t.ifl.(j + 1)
    done;
    t.ifl_len <- t.ifl_len - 1
  end

(* Stage 1 of the hierarchical arbiter: the current group keeps the
   grant while it has credit; at zero the ring advances and the next
   group's credit is refilled to its weight. The caller guarantees the
   active ring is non-empty ([queued_total > 0] implies some group has
   queued work, and only groups with queued work are on the ring). *)
let[@inline] hier_group t =
  let g = t.grp_cur in
  if t.grp_credit.(g) > 0 then g
  else begin
    let nxt = t.grp_next.(g) in
    t.grp_cur <- nxt;
    t.grp_credit.(nxt) <- t.grp_weight.(nxt);
    nxt
  end

(* Stage 2: per-group class WRR, scanning the group's expanded pattern
   from its cursor and skipping empty queues (work conserving);
   [grp_queued.(g) > 0] guarantees a hit within one cycle. Top-level
   recursion over ints, so the walk allocates nothing. *)
let rec grp_queue t g pat n =
  let cur = t.grp_cursor.(g) in
  let c = pat.(cur) in
  let nxt = cur + 1 in
  t.grp_cursor.(g) <- (if nxt = n then 0 else nxt);
  let q = (g * t.queues_per_group) + c in
  if t.queues.(q).r_len = 0 then grp_queue t g pat n else q

let[@inline] hier_pick t =
  let g = hier_group t in
  (* single-class groups (one queue each, the common case when the
     traffic has one class) need no stage-2 walk at all *)
  if t.queues_per_group = 1 then g
  else
    let pat = t.grp_pat.(g) in
    grp_queue t g pat (Array.length pat)

(* Group activation: splice an idle group in just before the current
   one — i.e. at the end of the current round — with a fresh credit
   grant, so a newly-backlogged tenant waits at most one full round. *)
let[@inline] hier_enqueued t q =
  let g = t.queue_group.(q) in
  let was = t.grp_queued.(g) in
  t.grp_queued.(g) <- was + 1;
  if was = 0 then
    if t.grp_cur < 0 then begin
      t.grp_cur <- g;
      t.grp_next.(g) <- g;
      t.grp_prev.(g) <- g;
      t.grp_credit.(g) <- t.grp_weight.(g)
    end
    else begin
      let cur = t.grp_cur in
      let prev = t.grp_prev.(cur) in
      t.grp_next.(prev) <- g;
      t.grp_prev.(g) <- prev;
      t.grp_next.(g) <- cur;
      t.grp_prev.(cur) <- g;
      t.grp_credit.(g) <- t.grp_weight.(g)
    end

(* Grant accounting + deactivation. A group that drains mid-grant
   leaves the ring immediately (it must not be picked with empty
   queues); if it held the grant, the grant passes on with a refill. *)
let[@inline] hier_dequeued t q =
  let g = t.queue_group.(q) in
  t.grp_credit.(g) <- t.grp_credit.(g) - 1;
  let left = t.grp_queued.(g) - 1 in
  t.grp_queued.(g) <- left;
  if left = 0 then begin
    let nxt = t.grp_next.(g) in
    if nxt = g then t.grp_cur <- -1
    else begin
      let prev = t.grp_prev.(g) in
      t.grp_next.(prev) <- nxt;
      t.grp_prev.(nxt) <- prev;
      if t.grp_cur = g then begin
        t.grp_cur <- nxt;
        t.grp_credit.(nxt) <- t.grp_weight.(nxt)
      end
    end
  end

(* Service start, shared by the drain loop and the idle-node fast
   grant in [submit_at]: engine accounting, busy-time and in-flight
   bookkeeping, the pooled completion slot and the hop's report.
   [busy_engines < engines] before every start, so a slot is free. *)
let[@inline] start_service t ~work ~submitted ~hop k =
  t.busy_engines <- t.busy_engines + 1;
  let now = Engine.now t.engine in
  let duration = service_time t work in
  let finish = now +. duration in
  t.fb.(0) <- t.fb.(0) +. duration;
  t.ifl.(t.ifl_len) <- finish;
  t.ifl_len <- t.ifl_len + 1;
  let slot = t.sv_free.(t.sv_free_top - 1) in
  t.sv_free_top <- t.sv_free_top - 1;
  (match hop with
  | Some h ->
    Hop.served h ~entity:t.label ~lane:slot ~now ~queued:(now -. submitted)
      ~service:duration
  | None -> ());
  t.sv_finish.(slot) <- finish;
  t.sv_k.(slot) <- k;
  Engine.schedule_after t.engine ~delay:duration t.sv_fire.(slot)

(* One-pass arbitration: while an engine is free and work is queued,
   pull from the flat node's one queue or via the arbiter and start
   service — submit, completion and recovery all funnel through this
   single drain loop, so a burst of freed engines resolves in one pass
   instead of one event round-trip each. Grant order is identical to the old one-grant-per-call
   dispatch (each call could only ever free one engine's worth of
   capacity at a time). *)
let rec dispatch_loop t =
  if t.busy_engines < t.engines - t.offline && t.queued_total > 0 then begin
    let q = if t.groups = 0 then 0 else hier_pick t in
    let r = t.queues.(q) in
    let cap = Array.length r.r_k in
    let head = r.r_head in
    let work = r.r_work.(head) in
    let submitted = r.r_sub.(head) in
    let hop = r.r_hop.(head) in
    let k = r.r_k.(head) in
    r.r_hop.(head) <- None;
    r.r_k.(head) <- noop;
    r.r_head <- (head + 1) land (cap - 1);
    r.r_len <- r.r_len - 1;
    t.queued_total <- t.queued_total - 1;
    if t.groups > 0 then hier_dequeued t q;
    start_service t ~work ~submitted ~hop k;
    dispatch_loop t
  end

(* Profiled entry points charge the drain / completion bookkeeping to
   the node-service phase; with no profiler attached each is a single
   pointer compare on top of the original code path. *)
and dispatch t =
  match t.prof with
  | None -> dispatch_loop t
  | Some p ->
    let prev = Profile.enter p Profile.phase_node in
    dispatch_loop t;
    Profile.leave p prev

(* Completion bookkeeping up to (and including) the work-conserving
   re-dispatch; returns the continuation so the profiled wrapper can
   stop the node clock before running downstream work. *)
and fire_steps t slot =
  let finish = t.sv_finish.(slot) in
  let k = t.sv_k.(slot) in
  t.busy_engines <- t.busy_engines - 1;
  remove_in_flight t finish;
  t.completions <- t.completions + 1;
  t.sv_k.(slot) <- noop;
  t.sv_free.(t.sv_free_top) <- slot;
  t.sv_free_top <- t.sv_free_top + 1;
  (* Work-conserving: the freed engine immediately pulls the next
     request before the completion continuation runs downstream. *)
  dispatch_loop t;
  k

and fire t slot =
  match t.prof with
  | None -> (fire_steps t slot) ()
  | Some p ->
    let prev = Profile.enter p Profile.phase_node in
    let k = fire_steps t slot in
    Profile.leave p prev;
    k ()

let validate_common ~engines ~rate_per_engine ~capacity =
  if engines < 1 then invalid_arg "Ip_node.create: engines must be >= 1";
  if rate_per_engine <= 0. then
    invalid_arg "Ip_node.create: rate_per_engine must be > 0";
  if capacity < 1 then invalid_arg "Ip_node.create: queue_capacity must be >= 1"

(* [hier = None] builds a flat one-queue node; [Some (group_weights,
   class_weights)] the two-stage arbiter. *)
let make engine ~rng ~label ~engines ~rate_per_engine ~entries_per_queue
    ~service_dist ~hier =
  let groups, queues_per_group =
    match hier with
    | None -> (0, 1)
    | Some (gw, cw) -> (Array.length gw, Array.length cw.(0))
  in
  let nqueues = max 1 groups * queues_per_group in
  let t =
    {
      engine;
      rng;
      label;
      engines;
      rate_per_engine;
      entries_per_queue;
      service_dist;
      queues =
        (let slots = match hier with None -> 16 | Some _ -> 4 in
         Array.init nqueues (fun _ -> ring_create slots));
      queued_total = 0;
      drops_per_queue = Array.make nqueues 0;
      groups;
      queues_per_group;
      queue_group =
        (match hier with
        | None -> [||]
        | Some _ -> Array.init nqueues (fun q -> q / queues_per_group));
      fast_grant = queues_per_group = 1;
      grp_weight = (match hier with None -> [||] | Some (gw, _) -> Array.copy gw);
      grp_credit = Array.make (max 1 groups) 0;
      grp_queued = Array.make (max 1 groups) 0;
      grp_next = Array.make (max 1 groups) (-1);
      grp_prev = Array.make (max 1 groups) (-1);
      grp_cur = -1;
      grp_pat =
        (match hier with
        | None -> [||]
        | Some (_, cw) -> Array.map expand_pattern cw);
      grp_cursor = Array.make (max 1 groups) 0;
      offline = 0;
      capacity_override = None;
      busy_engines = 0;
      completions = 0;
      fb = Array.make 2 0.;
      ifl = Array.make engines 0.;
      ifl_len = 0;
      sv_finish = Array.make engines 0.;
      sv_k = Array.make engines noop;
      sv_fire = Array.make engines noop;
      (* slot [0] on top of the stack so the first start takes slot 0 *)
      sv_free = Array.init engines (fun i -> engines - 1 - i);
      sv_free_top = engines;
      prof = None;
    }
  in
  (* Completion closures are per-slot and built once here — after the
     record exists, since they capture it. *)
  for slot = 0 to engines - 1 do
    t.sv_fire.(slot) <- (fun () -> fire t slot)
  done;
  t

let create engine ~rng ~label ~engines ~rate_per_engine ~queue_capacity
    ~service_dist =
  validate_common ~engines ~rate_per_engine ~capacity:queue_capacity;
  make engine ~rng ~label ~engines ~rate_per_engine
    ~entries_per_queue:queue_capacity ~service_dist ~hier:None

let create_hierarchical engine ~rng ~label ~engines
    ~rate_per_engine ~entries_per_queue ~group_weights ~class_weights
    ~service_dist =
  validate_common ~engines ~rate_per_engine ~capacity:entries_per_queue;
  let groups = Array.length group_weights in
  if groups = 0 then invalid_arg "Ip_node.create_hierarchical: no groups";
  if Array.exists (fun w -> w < 1) group_weights then
    invalid_arg "Ip_node.create_hierarchical: group weights must be >= 1";
  if Array.length class_weights <> groups then
    invalid_arg "Ip_node.create_hierarchical: one class-weight row per group";
  let qpg = Array.length class_weights.(0) in
  if qpg = 0 then invalid_arg "Ip_node.create_hierarchical: no class queues";
  Array.iter
    (fun row ->
      if Array.length row <> qpg then
        invalid_arg "Ip_node.create_hierarchical: ragged class-weight rows";
      if Array.exists (fun w -> w < 1) row then
        invalid_arg "Ip_node.create_hierarchical: class weights must be >= 1")
    class_weights;
  make engine ~rng ~label ~engines ~rate_per_engine ~entries_per_queue
    ~service_dist ~hier:(Some (group_weights, class_weights))

let set_profile t p = t.prof <- p

let set_offline t n =
  if n < 0 || n > t.engines then
    invalid_arg "Ip_node.set_offline: count outside [0, engines]";
  t.offline <- n;
  (* Recovery may free several engines at once; the drain loop starts
     as many services as there are freed engines and backlogged
     requests (work conserving). *)
  dispatch t

let set_capacity_override t cap =
  (match cap with
  | Some c when c < 1 ->
    invalid_arg "Ip_node.set_capacity_override: capacity must be >= 1"
  | _ -> ());
  t.capacity_override <- cap

let effective_capacity t =
  match t.capacity_override with
  | None -> t.entries_per_queue
  | Some c -> min c t.entries_per_queue

let[@inline] submit_at ?hop t ~queue ~work k =
  if queue < 0 || queue >= Array.length t.queues then
    invalid_arg "Ip_node.submit_at: bad queue index";
  if work < 0. then invalid_arg "Ip_node.submit_at: negative work";
  (* Fast path: a request needing no engine time completes immediately —
     but only when its queue is empty, otherwise it would overtake
     queued requests and reorder the stream. *)
  if
    (work = 0. || t.rate_per_engine = infinity) && t.queues.(queue).r_len = 0
  then begin
    (match hop with
    | Some h ->
      Hop.served h ~entity:t.label ~lane:0 ~now:(Engine.now t.engine)
        ~queued:0. ~service:0.
    | None -> ());
    k ();
    true
  end
  else if
    (* Idle-node fast grant: nothing queued and an engine free means
       the arbiter would hand this request the very next grant, so
       eligible nodes ([fast_grant]) start service directly — no ring
       push/pop, no scheduler bookkeeping. The M/M/n/N capacity check
       still applies to flat nodes (capacity counts in-service
       requests, so an idle queue can still be full). *)
    t.fast_grant && t.queued_total = 0
    && t.busy_engines < t.engines - t.offline
    && (t.groups > 0 || in_system t < effective_capacity t)
  then begin
    (match t.prof with
    | None ->
      start_service t ~work ~submitted:(Engine.now t.engine) ~hop k
    | Some p ->
      let prev = Profile.enter p Profile.phase_node in
      start_service t ~work ~submitted:(Engine.now t.engine) ~hop k;
      Profile.leave p prev);
    true
  end
  else begin
    let capacity = effective_capacity t in
    let full =
      if t.groups = 0 then in_system t >= capacity
      else t.queues.(queue).r_len >= capacity
    in
    if full then begin
      t.drops_per_queue.(queue) <- t.drops_per_queue.(queue) + 1;
      false
    end
    else begin
      let r = t.queues.(queue) in
      let cap = Array.length r.r_k in
      if r.r_len = cap then ring_grow r;
      let cap = Array.length r.r_k in
      let i = (r.r_head + r.r_len) land (cap - 1) in
      r.r_work.(i) <- work;
      r.r_sub.(i) <- Engine.now t.engine;
      r.r_hop.(i) <- hop;
      r.r_k.(i) <- k;
      r.r_len <- r.r_len + 1;
      t.queued_total <- t.queued_total + 1;
      if t.groups > 0 then hier_enqueued t queue;
      dispatch t;
      true
    end
  end
