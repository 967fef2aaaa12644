type t = {
  engine : Engine.t;
  label : string;
  bandwidth : float;
  mutable scale : float;
      (* fault-injection bandwidth factor; 1. outside degraded intervals *)
  f : float array;  (* unboxed hot state: 0 = next_free, 1 = busy *)
  mutable rejections : int;
  mutable transfers : int;  (* nonzero-byte transfers admitted *)
  mutable prof : Profile.t option;
      (* self-profiler hook ({!Metrics}); [None] costs one pointer
         compare per nonzero transfer *)
}

let buffer = 2. *. 1024. *. 1024.

let create engine ~label ~bandwidth () =
  if bandwidth <= 0. then invalid_arg "Medium.create: bandwidth must be > 0";
  {
    engine;
    label;
    bandwidth;
    scale = 1.;
    f = Array.make 2 0.;
    rejections = 0;
    transfers = 0;
    prof = None;
  }

let label t = t.label

(* The guard keeps the healthy path byte-identical to the pre-fault
   code: [b *. 1.] is [b] for every finite positive float, but skipping
   the multiply avoids betting bit-reproducibility on that identity. *)
let effective_bandwidth t =
  if t.scale = 1. then t.bandwidth else t.bandwidth *. t.scale

let set_scale t factor =
  if (not (Float.is_finite factor)) || factor <= 0. || factor > 1. then
    invalid_arg "Medium.set_scale: factor must be in (0, 1]";
  t.scale <- factor

(* Nonzero-byte admission: arbitration, backlog check, scheduling. *)
let[@inline] transfer_admit ?hop t ~bytes k =
  let now = Engine.now t.engine in
  let bw = effective_bandwidth t in
  let next_free = t.f.(0) in
  (* [Float.max] spelled out twice below: the stdlib function is a
     call whose float arguments box on every transfer; neither
     operand is ever NaN here, so the specialization is exact *)
  let wait = next_free -. now in
  let backlog_bytes = (if wait > 0. then wait else 0.) *. bw in
  if backlog_bytes +. bytes > buffer then begin
    t.rejections <- t.rejections + 1;
    false
  end
  else begin
    let start = if next_free > now then next_free else now in
    let duration = bytes /. bw in
    t.f.(0) <- start +. duration;
    t.f.(1) <- t.f.(1) +. duration;
    t.transfers <- t.transfers + 1;
    (match hop with
    | Some h ->
      Hop.transferred h ~entity:t.label ~now ~queued:(start -. now)
        ~wire:duration
    | None -> ());
    Engine.schedule t.engine ~at:(start +. duration) k;
    true
  end

let[@inline] transfer ?hop t ~bytes k =
  if bytes < 0. then invalid_arg "Medium.transfer: negative bytes";
  if bytes = 0. then begin
    (match hop with
    | Some h ->
      Hop.transferred h ~entity:t.label ~now:(Engine.now t.engine) ~queued:0.
        ~wire:0.
    | None -> ());
    k ();
    true
  end
  else begin
    match t.prof with
    | None -> transfer_admit ?hop t ~bytes k
    | Some p ->
      let prev = Profile.enter p Profile.phase_media in
      let admitted = transfer_admit ?hop t ~bytes k in
      Profile.leave p prev;
      admitted
  end

(* Inlinable, with [transfer_admit]'s spelled-out [Float.max], so the
   per-admission invariant check reads it unboxed. *)
let[@inline] backlog t =
  let wait = t.f.(0) -. Engine.now t.engine in
  (if wait > 0. then wait else 0.) *. effective_bandwidth t

(* Transfers admitted while backlogged run back to back, so everything
   scheduled past [until] is the single contiguous run ending at
   [next_free]: clipping it out of the schedule-time total is exact
   whenever [until] is at or after the last admission (the horizon
   always is). Without the clip, work extending past the simulation
   horizon counts fully and utilization can exceed 1 near saturation. *)
let busy_within t ~until =
  Float.max 0. (t.f.(1) -. Float.max 0. (t.f.(0) -. until))

let utilization t ~until = if until <= 0. then 0. else busy_within t ~until /. until
let rejections t = t.rejections
let transfers t = t.transfers
let set_profile t p = t.prof <- p
