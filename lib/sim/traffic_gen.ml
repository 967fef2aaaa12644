type arrival = Poisson | Paced | Bursty of { burstiness : float; mean_on : float }

(* Scratch-float layout: mutable float record fields box on every store
   (no flambda), so the generator's float state lives in [fb]. *)
let fb_phase_until = 0 (* end of the current ON phase (Bursty) *)

type t = {
  engine : Engine.t;
  rng : Lognic_numerics.Rng.t;
  arrival : arrival;
  class_rates : float array;  (* packet rate per class *)
  total_pps : float;
  on_arrival : int -> unit;
  mutable count : int;
  fb : float array;
}

let create engine ~rng ~arrival ~mix ~on_arrival =
  let class_rates =
    Array.of_list
      (List.map
         (fun ((c : Lognic.Traffic.t), _) -> Lognic.Traffic.packet_rate c)
         mix)
  in
  let total_pps = Array.fold_left ( +. ) 0. class_rates in
  if total_pps <= 0. then invalid_arg "Traffic_gen.create: zero packet rate";
  (match arrival with
  | Bursty { burstiness; mean_on } ->
    if burstiness <= 1. then
      invalid_arg "Traffic_gen.create: burstiness must be > 1";
    if mean_on <= 0. then invalid_arg "Traffic_gen.create: mean_on must be > 0"
  | Poisson | Paced -> ());
  {
    engine;
    rng;
    arrival;
    class_rates;
    total_pps;
    on_arrival;
    count = 0;
    fb = Array.make 1 0.;
  }

(* Next arrival time from [now], Bursty case. Packets are only
   generated inside ON phases; crossing the phase boundary inserts an
   OFF gap and draws a fresh ON phase (memorylessness makes restarting
   the inter-arrival draw at the new phase start exact). *)
let rec bursty_next t ~burstiness ~mean_on now =
  if now >= t.fb.(fb_phase_until) then begin
    (* we are in an OFF gap (or at start): open a new ON phase *)
    let off =
      if t.fb.(fb_phase_until) = 0. && now = 0. then 0.
      else
        Lognic_numerics.Dist.sample_exponential
          ~rate:(1. /. (mean_on *. (burstiness -. 1.)))
          t.rng
    in
    let start = Float.max now t.fb.(fb_phase_until) +. off in
    t.fb.(fb_phase_until) <-
      start +. Lognic_numerics.Dist.sample_exponential ~rate:(1. /. mean_on) t.rng;
    bursty_next t ~burstiness ~mean_on start
  end
  else begin
    let candidate =
      now
      +. Lognic_numerics.Dist.sample_exponential
           ~rate:(t.total_pps *. burstiness)
           t.rng
    in
    if candidate < t.fb.(fb_phase_until) then candidate
    else
      (* the draw crossed the phase end: resume from the boundary,
         where the OFF branch above takes over *)
      bursty_next t ~burstiness ~mean_on t.fb.(fb_phase_until)
  end

(* Inlinable dispatcher so the Poisson/Paced fast paths never box [now]
   at a call boundary; only Bursty pays the recursive helper. *)
let[@inline] next_arrival t now =
  match t.arrival with
  | Paced -> now +. (1. /. t.total_pps)
  | Poisson ->
    now +. Lognic_numerics.Dist.sample_exponential ~rate:t.total_pps t.rng
  | Bursty { burstiness; mean_on } -> bursty_next t ~burstiness ~mean_on now

let start t ~until =
  let rec emit () =
    let now = Engine.now t.engine in
    let klass =
      Lognic_numerics.Choice.scan t.rng t.class_rates ~total:t.total_pps
    in
    t.count <- t.count + 1;
    t.on_arrival klass;
    let next = next_arrival t now in
    if next < until then Engine.schedule t.engine ~at:next emit
  in
  let first = next_arrival t (Engine.now t.engine) in
  if first < until then Engine.schedule t.engine ~at:first emit

let generated t = t.count
