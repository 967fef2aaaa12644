(* Live streaming metrics: a typed registry of per-entity instruments
   sampled on a fixed sim-time interval, with delta-encoded NDJSON
   snapshots, an OpenMetrics exposition, and SLO watchdog rules with
   hysteresis.

   Determinism is the design constraint.  Every scalar instrument is a
   read-only probe over state the simulator already maintains (windowed
   telemetry accounts, node/medium accessors), so sampling can never
   change results; the only new hot-path instrument is the histogram,
   whose [observe_span] is a binary search plus an int bump and a
   float-array add — no allocation.  Snapshots carry only sim-time
   quantities; wall-clock and GC numbers from the optional {!Profile}
   ride in a separate [schema:"profile"] document because they are
   inherently nondeterministic. *)

module J = Telemetry.Json

type kind = Counter | Gauge | Rate

(* SLO watchdog rules: a tiny grammar, parsed once at setup. *)
module Slo = struct
  type comparison = Gt | Lt
  type condition = Threshold of comparison * float | Rising

  type rule = {
    r_entity : string;  (* "*" matches any entity *)
    r_metric : string;
    r_cond : condition;
    r_for : int;  (* consecutive breaching intervals to fire *)
  }

  let split_subject lhs =
    let lhs = String.trim lhs in
    match String.index_opt lhs '.' with
    | Some i ->
      ( String.sub lhs 0 i,
        String.sub lhs (i + 1) (String.length lhs - i - 1) )
    | None -> ("*", lhs)

  let positive_int s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None

  let parse text =
    let s = String.trim text in
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    if s = "" then err "empty SLO rule"
    else
      match String.index_opt s '^' with
      | Some i -> (
        let entity, metric = split_subject (String.sub s 0 i) in
        let n = String.sub s (i + 1) (String.length s - i - 1) in
        match positive_int n with
        | Some n when metric <> "" ->
          Ok { r_entity = entity; r_metric = metric; r_cond = Rising; r_for = n }
        | _ -> err "%S: expected [ENTITY.]METRIC^N with N >= 1" s)
      | None -> (
        let op =
          match (String.index_opt s '>', String.index_opt s '<') with
          | Some i, None -> Some (Gt, i)
          | None, Some i -> Some (Lt, i)
          | Some i, Some j -> Some ((if i < j then Gt else Lt), min i j)
          | None, None -> None
        in
        match op with
        | None ->
          err "%S: expected [ENTITY.]METRIC(>|<)VALUE[xN] or [ENTITY.]METRIC^N"
            s
        | Some (cmp, i) -> (
          let entity, metric = split_subject (String.sub s 0 i) in
          let rhs = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
          let value, reps =
            match String.rindex_opt rhs 'x' with
            | Some j -> (
              let v = String.sub rhs 0 j in
              let n = String.sub rhs (j + 1) (String.length rhs - j - 1) in
              match (float_of_string_opt v, positive_int n) with
              | Some v, Some n -> (Some v, n)
              | _ -> (float_of_string_opt rhs, 1))
            | None -> (float_of_string_opt rhs, 1)
          in
          match value with
          | Some v when metric <> "" && Float.is_finite v ->
            Ok
              {
                r_entity = entity;
                r_metric = metric;
                r_cond = Threshold (cmp, v);
                r_for = reps;
              }
          | _ -> err "%S: could not parse threshold value in %S" s rhs))

  let parse_exn text =
    match parse text with Ok r -> r | Error m -> invalid_arg ("Slo.parse: " ^ m)

  let to_string r =
    let subject =
      if r.r_entity = "*" then r.r_metric else r.r_entity ^ "." ^ r.r_metric
    in
    match r.r_cond with
    | Rising -> Printf.sprintf "%s^%d" subject r.r_for
    | Threshold (cmp, v) ->
      let op = match cmp with Gt -> ">" | Lt -> "<" in
      let reps = if r.r_for = 1 then "" else Printf.sprintf "x%d" r.r_for in
      Printf.sprintf "%s%s%s%s" subject op (J.float_repr v) reps

  let matches r ~entity ~metric =
    r.r_metric = metric && (r.r_entity = "*" || r.r_entity = entity)
end

(* Log-spaced latency bounds, 4 per decade from 100ns to 1s; a closing
   +inf bucket is appended by [histogram]. *)
let default_bounds =
  Array.init 29 (fun i -> 1e-7 *. (10. ** (float_of_int i /. 4.)))

type histogram = {
  h_entity : string;
  h_name : string;
  h_bounds : float array;  (* strictly increasing; last is [infinity] *)
  h_search : float array;
      (* [h_bounds] padded with [infinity] to exactly 32 entries when it
         fits, [[||]] otherwise: the hot-path [observe_span] runs a fixed
         five-step unrolled lower-bound search over it (no calls, no
         boxing), falling back to the recursive search for oversized
         custom bound sets *)
  h_counts : int array;  (* cumulative per bucket *)
  h_prev_counts : int array;  (* at the previous tick *)
  h_f : float array;  (* 0 = cumulative sum, 1 = sum at previous tick *)
  mutable h_total : int;
  mutable h_prev_total : int;
}

(* First bucket whose upper bound admits [v]; tail-recursive ints so the
   hot path allocates nothing. *)
let rec bucket_of bounds v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if v <= Array.unsafe_get bounds mid then bucket_of bounds v lo mid
    else bucket_of bounds v (mid + 1) hi

(* The observed value is [fs.(to_slot) -. fs.(from_slot)], computed
   inside the call: without flambda, every non-inlined call with a float
   argument boxes it (and a recursive search re-boxes at each level), so
   only pointers and ints cross the boundary and the whole search lives
   in this one body — the simulator's per-delivery hook allocates
   nothing even though this function is too large for the non-flambda
   inliner. Over the 32-entry padded array the lower bound is five
   unrolled compares; the +inf padding keeps the answer inside the real
   bounds for every non-NaN value (NaN compares false throughout and
   lands in bucket 0). *)
let observe_span h fs ~from_slot ~to_slot =
  let v = Array.unsafe_get fs to_slot -. Array.unsafe_get fs from_slot in
  let i =
    if Array.length h.h_search = 32 then begin
      let b = h.h_search in
      let i = if v > Array.unsafe_get b 15 then 16 else 0 in
      let i = if v > Array.unsafe_get b (i + 7) then i + 8 else i in
      let i = if v > Array.unsafe_get b (i + 3) then i + 4 else i in
      let i = if v > Array.unsafe_get b (i + 1) then i + 2 else i in
      if v > Array.unsafe_get b i then i + 1 else i
    end
    else bucket_of h.h_bounds v 0 (Array.length h.h_counts - 1)
  in
  Array.unsafe_set h.h_counts i (Array.unsafe_get h.h_counts i + 1);
  h.h_total <- h.h_total + 1;
  h.h_f.(0) <- h.h_f.(0) +. v

(* Upper bound of the bucket holding the [q]-quantile of a (delta)
   histogram; the +inf bucket reports the largest finite bound. *)
let quantile bounds counts total q =
  if total = 0 then 0.
  else begin
    let target = int_of_float (Float.ceil (q *. float_of_int total)) in
    let target = if target < 1 then 1 else target in
    let last = Array.length bounds - 1 in
    let rec go i acc =
      let acc = acc + counts.(i) in
      if acc >= target || i = last then
        if i = last then bounds.(last - 1) else bounds.(i)
      else go (i + 1) acc
    in
    go 0 0
  end

type metric = {
  m_entity : string;
  m_name : string;
  m_kind : kind;
  m_probe : unit -> float;
  mutable m_prev : float;  (* probe value at the previous tick *)
  mutable m_rate : float;  (* last computed per-interval rate *)
}

type item = Metric of metric | Hist of histogram

type sample =
  | Counter_s of { total : float; delta : float }
  | Gauge_s of { value : float }
  | Rate_s of { value : float; total : float }
  | Hist_s of { count : int; sum : float; p50 : float; p99 : float }

type entity_snapshot = { e_name : string; e_samples : (string * sample) list }

type alert_event = {
  ev_rule : string;
  ev_entity : string;
  ev_firing : bool;  (* [true] = fired this interval, [false] = resolved *)
  ev_value : float;
}

type snapshot = {
  s_seq : int;
  s_time : float;
  s_interval : float;
  s_entities : entity_snapshot list;
  s_alerts : alert_event list;
}

type alert = {
  a_rule : Slo.rule;
  a_entity : string;
  mutable a_active : bool;
  mutable a_first_fired : float;
  mutable a_last_fired : float;
  mutable a_breaches : int;  (* intervals in breach, fired or not *)
  mutable a_worst : float;
  mutable a_streak : int;
  mutable a_clear_streak : int;
  mutable a_prev : float;  (* previous evaluated value, for Rising *)
  mutable a_has_prev : bool;
}

type config = {
  interval : float;
  slo : Slo.rule list;
  profile : bool;
  on_snapshot : (snapshot -> unit) option;
}

let default_config =
  { interval = 1e-3; slo = []; profile = false; on_snapshot = None }

type t = {
  cfg : config;
  mutable items : item list;  (* registration order *)
  states : (int * string, alert) Hashtbl.t;  (* (rule index, entity) *)
  mutable alert_order : alert list;  (* newest first *)
  mutable seq : int;
  mutable last_time : float;
  profiler : Profile.t option;
}

let create cfg =
  if cfg.interval <= 0. then invalid_arg "Metrics.create: interval must be > 0";
  {
    cfg;
    items = [];
    states = Hashtbl.create 16;
    alert_order = [];
    seq = 0;
    last_time = 0.;
    profiler = (if cfg.profile then Some (Profile.create ()) else None);
  }

let config t = t.cfg
let profiler t = t.profiler
let snapshots t = t.seq

let register t ~entity ~name kind probe =
  let m =
    {
      m_entity = entity;
      m_name = name;
      m_kind = kind;
      m_probe = probe;
      m_prev = probe ();
      m_rate = 0.;
    }
  in
  t.items <- t.items @ [ Metric m ]

let histogram t ~entity ~name ?(bounds = default_bounds) () =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty bounds";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bounds must be strictly increasing"
  done;
  let h_bounds = Array.append bounds [| infinity |] in
  let h_search =
    if n + 1 <= 32 then begin
      let s = Array.make 32 infinity in
      Array.blit h_bounds 0 s 0 (n + 1);
      s
    end
    else [||]
  in
  let h =
    {
      h_entity = entity;
      h_name = name;
      h_bounds;
      h_search;
      h_counts = Array.make (n + 1) 0;
      h_prev_counts = Array.make (n + 1) 0;
      h_f = Array.make 2 0.;
      h_total = 0;
      h_prev_total = 0;
    }
  in
  t.items <- t.items @ [ Hist h ];
  h

(* ------------------------------------------------------------------ *)
(* Ticks: sample every instrument, evaluate the watchdogs, snapshot.  *)

let alert_state t ri rule entity =
  let key = (ri, entity) in
  match Hashtbl.find_opt t.states key with
  | Some st -> st
  | None ->
    let st =
      {
        a_rule = rule;
        a_entity = entity;
        a_active = false;
        a_first_fired = -1.;
        a_last_fired = -1.;
        a_breaches = 0;
        a_worst = Float.nan;
        a_streak = 0;
        a_clear_streak = 0;
        a_prev = 0.;
        a_has_prev = false;
      }
    in
    Hashtbl.add t.states key st;
    t.alert_order <- st :: t.alert_order;
    st

let evaluate_rules t ~now ~events (entity, metric, value) =
  List.iteri
    (fun ri (rule : Slo.rule) ->
      if Slo.matches rule ~entity ~metric then begin
        let st = alert_state t ri rule entity in
        let breach =
          match rule.r_cond with
          | Slo.Threshold (Slo.Gt, x) -> value > x
          | Slo.Threshold (Slo.Lt, x) -> value < x
          | Slo.Rising -> st.a_has_prev && value > st.a_prev
        in
        st.a_prev <- value;
        st.a_has_prev <- true;
        if breach then begin
          st.a_streak <- st.a_streak + 1;
          st.a_clear_streak <- 0;
          st.a_breaches <- st.a_breaches + 1;
          let worse =
            Float.is_nan st.a_worst
            ||
            match rule.r_cond with
            | Slo.Threshold (Slo.Lt, _) -> value < st.a_worst
            | _ -> value > st.a_worst
          in
          if worse then st.a_worst <- value;
          if (not st.a_active) && st.a_streak >= rule.r_for then begin
            st.a_active <- true;
            if st.a_first_fired < 0. then st.a_first_fired <- now;
            events :=
              {
                ev_rule = Slo.to_string rule;
                ev_entity = entity;
                ev_firing = true;
                ev_value = value;
              }
              :: !events
          end;
          if st.a_active then st.a_last_fired <- now
        end
        else begin
          st.a_streak <- 0;
          st.a_clear_streak <- st.a_clear_streak + 1;
          if st.a_active && st.a_clear_streak >= rule.r_for then begin
            st.a_active <- false;
            events :=
              {
                ev_rule = Slo.to_string rule;
                ev_entity = entity;
                ev_firing = false;
                ev_value = value;
              }
              :: !events
          end
        end
      end)
    t.cfg.slo

let tick t ~now =
  let dt =
    let d = now -. t.last_time in
    if d > 0. then d else t.cfg.interval
  in
  t.seq <- t.seq + 1;
  t.last_time <- now;
  (match t.profiler with
  | Some p -> ignore (Profile.tick p ~time:now)
  | None -> ());
  let events = ref [] in
  (* Entities in first-registration order, each with its samples in
     registration order; SLO rules see every evaluated value in the
     same deterministic order. *)
  let entities = ref [] in
  let push entity name sample =
    match List.assoc_opt entity !entities with
    | Some samples ->
      samples := (name, sample) :: !samples
    | None -> entities := !entities @ [ (entity, ref [ (name, sample) ]) ]
  in
  List.iter
    (fun item ->
      match item with
      | Metric m ->
        let cur = m.m_probe () in
        let delta = cur -. m.m_prev in
        m.m_prev <- cur;
        (match m.m_kind with
        | Counter ->
          push m.m_entity m.m_name (Counter_s { total = cur; delta });
          evaluate_rules t ~now ~events (m.m_entity, m.m_name, delta)
        | Gauge ->
          push m.m_entity m.m_name (Gauge_s { value = cur });
          evaluate_rules t ~now ~events (m.m_entity, m.m_name, cur)
        | Rate ->
          let rate = delta /. dt in
          m.m_rate <- rate;
          push m.m_entity m.m_name (Rate_s { value = rate; total = cur });
          evaluate_rules t ~now ~events (m.m_entity, m.m_name, rate))
      | Hist h ->
        let n = Array.length h.h_counts in
        let dcounts = Array.make n 0 in
        for i = 0 to n - 1 do
          dcounts.(i) <- h.h_counts.(i) - h.h_prev_counts.(i)
        done;
        let dtotal = h.h_total - h.h_prev_total in
        let dsum = h.h_f.(0) -. h.h_f.(1) in
        Array.blit h.h_counts 0 h.h_prev_counts 0 n;
        h.h_prev_total <- h.h_total;
        h.h_f.(1) <- h.h_f.(0);
        let p50 = quantile h.h_bounds dcounts dtotal 0.5 in
        let p99 = quantile h.h_bounds dcounts dtotal 0.99 in
        push h.h_entity h.h_name (Hist_s { count = dtotal; sum = dsum; p50; p99 });
        evaluate_rules t ~now ~events (h.h_entity, h.h_name ^ "_p50", p50);
        evaluate_rules t ~now ~events (h.h_entity, h.h_name ^ "_p99", p99))
    t.items;
  let snap =
    {
      s_seq = t.seq;
      s_time = now;
      s_interval = dt;
      s_entities =
        List.map
          (fun (e, samples) ->
            { e_name = e; e_samples = List.rev !samples })
          !entities;
      s_alerts = List.rev !events;
    }
  in
  (match t.cfg.on_snapshot with Some f -> f snap | None -> ());
  snap

let alerts t = List.rev t.alert_order

(* ------------------------------------------------------------------ *)
(* The simulator's instrument catalog.                                *)

(* Every instrument is a read-only probe over state the simulator
   already maintains and no rng stream is split, so attaching never
   changes simulation results; the ticks are extra scheduled events,
   which shift absolute event sequence numbers but never the relative
   pop order of packet events. *)
let attach cfg engine ~telemetry ~nodes ~media ?tenants ~until () =
  let m = create cfg in
  let run name kind probe = register m ~entity:"run" ~name kind probe in
  run "offered" Counter (fun () -> float_of_int (Telemetry.offered telemetry));
  run "delivered" Counter (fun () -> float_of_int (Telemetry.delivered telemetry));
  run "dropped" Counter (fun () -> float_of_int (Telemetry.dropped telemetry));
  run "delivered_bytes" Counter (fun () -> Telemetry.delivered_bytes telemetry);
  (* The latency histogram is the one hot-path instrument; each tick
     synthesizes latency_p50 / latency_p99 for SLO rules. *)
  let hist = histogram m ~entity:"run" ~name:"latency" () in
  (* Warmup-windowed drops per site, one entity per interned drop
     counter. *)
  List.iter
    (fun c ->
      register m
        ~entity:(Telemetry.drop_site_name (Telemetry.counter_site c))
        ~name:"drops" Counter
        (fun () -> float_of_int (Telemetry.counter_hits c)))
    (Telemetry.counters telemetry);
  List.iter
    (fun node ->
      let entity = Ip_node.label node in
      register m ~entity ~name:"completions" Counter (fun () ->
          float_of_int (Ip_node.completions node));
      register m ~entity ~name:"drops" Counter (fun () ->
          float_of_int (Ip_node.drops node));
      register m ~entity ~name:"queue_depth" Gauge (fun () ->
          float_of_int (Ip_node.in_system node));
      register m ~entity ~name:"busy_engines" Gauge (fun () ->
          float_of_int (Ip_node.busy_engines node));
      let nameplate = float_of_int (Ip_node.engines node) in
      (* cumulative busy-engine seconds over the nameplate count: as a
         [Rate], delta/interval is the interval utilization *)
      register m ~entity ~name:"utilization" Rate (fun () ->
          Ip_node.busy_within node ~until:(Engine.now engine) /. nameplate))
    nodes;
  List.iter
    (fun md ->
      let entity = Medium.label md in
      register m ~entity ~name:"transfers" Counter (fun () ->
          float_of_int (Medium.transfers md));
      register m ~entity ~name:"rejections" Counter (fun () ->
          float_of_int (Medium.rejections md));
      register m ~entity ~name:"backlog_bytes" Gauge (fun () -> Medium.backlog md);
      register m ~entity ~name:"utilization" Rate (fun () ->
          Medium.busy_within md ~until:(Engine.now engine)))
    media;
  (* Fairness gauges go last so untenanted runs keep their historical
     instrument order (and NDJSON fixtures). *)
  Option.iter
    (fun (set, tbl) ->
      let fairness () =
        Tenant.live_fairness set tbl ~horizon:(Engine.now engine)
      in
      let gauge name f = register m ~entity:"tenants" ~name Gauge (fun () -> f (fairness ())) in
      gauge "maxmin_share" (fun f -> f.Tenant.maxmin_ratio);
      gauge "jain" (fun f -> f.Tenant.jain);
      gauge "interference" (fun f -> f.Tenant.interference))
    tenants;
  (* The self-profiler reads only the host's wall clock. *)
  Option.iter
    (fun p ->
      List.iter (fun node -> Ip_node.set_profile node (Some p)) nodes;
      List.iter (fun md -> Medium.set_profile md (Some p)) media)
    m.profiler;
  Engine.every engine ~interval:cfg.interval ~until (fun now -> ignore (tick m ~now));
  (m, hist)

(* ------------------------------------------------------------------ *)
(* Exports.                                                           *)

let sample_to_json (name, s) =
  let fields =
    match s with
    | Counter_s { total; delta } ->
      [
        ("kind", J.Str "counter"); ("delta", J.Num delta); ("total", J.Num total);
      ]
    | Gauge_s { value } -> [ ("kind", J.Str "gauge"); ("value", J.Num value) ]
    | Rate_s { value; total } ->
      [ ("kind", J.Str "rate"); ("value", J.Num value); ("total", J.Num total) ]
    | Hist_s { count; sum; p50; p99 } ->
      [
        ("kind", J.Str "histogram");
        ("count", J.Num (float_of_int count));
        ("sum", J.Num sum);
        ("p50", J.Num p50);
        ("p99", J.Num p99);
      ]
  in
  J.Obj (("name", J.Str name) :: fields)

let alert_event_to_json ev =
  J.Obj
    [
      ("rule", J.Str ev.ev_rule);
      ("entity", J.Str ev.ev_entity);
      ("state", J.Str (if ev.ev_firing then "firing" else "resolved"));
      ("value", J.Num ev.ev_value);
    ]

let snapshot_to_json s =
  J.versioned ~kind:"metrics"
    [
      ("seq", J.Num (float_of_int s.s_seq));
      ("time", J.Num s.s_time);
      ("interval", J.Num s.s_interval);
      ( "entities",
        J.Arr
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("entity", J.Str e.e_name);
                   ("metrics", J.Arr (List.map sample_to_json e.e_samples));
                 ])
             s.s_entities) );
      ("alerts", J.Arr (List.map alert_event_to_json s.s_alerts));
    ]

(* Streaming twin of [snapshot_to_json]: writes the same document
   straight into a buffer without building the tree, so a per-tick
   NDJSON sink costs string appends instead of list/Obj allocation plus
   a render pass.  Byte-for-byte equality with
   [J.to_string (snapshot_to_json s)] is enforced by a test. *)
let snapshot_to_buffer buf s =
  let str = J.write_string buf in
  let num = J.write_num buf in
  let raw = Buffer.add_string buf in
  raw {|{"schema":"metrics","schema_version":|};
  num (float_of_int (Schema.version_of_exn "metrics"));
  raw {|,"seq":|};
  num (float_of_int s.s_seq);
  raw {|,"time":|};
  num s.s_time;
  raw {|,"interval":|};
  num s.s_interval;
  raw {|,"entities":[|};
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      raw {|{"entity":|};
      str e.e_name;
      raw {|,"metrics":[|};
      List.iteri
        (fun j (name, sample) ->
          if j > 0 then Buffer.add_char buf ',';
          raw {|{"name":|};
          str name;
          (match sample with
          | Counter_s { total; delta } ->
            raw {|,"kind":"counter","delta":|};
            num delta;
            raw {|,"total":|};
            num total
          | Gauge_s { value } ->
            raw {|,"kind":"gauge","value":|};
            num value
          | Rate_s { value; total } ->
            raw {|,"kind":"rate","value":|};
            num value;
            raw {|,"total":|};
            num total
          | Hist_s { count; sum; p50; p99 } ->
            raw {|,"kind":"histogram","count":|};
            num (float_of_int count);
            raw {|,"sum":|};
            num sum;
            raw {|,"p50":|};
            num p50;
            raw {|,"p99":|};
            num p99);
          Buffer.add_char buf '}')
        e.e_samples;
      raw "]}")
    s.s_entities;
  raw {|],"alerts":[|};
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      raw {|{"rule":|};
      str ev.ev_rule;
      raw {|,"entity":|};
      str ev.ev_entity;
      raw {|,"state":|};
      str (if ev.ev_firing then "firing" else "resolved");
      raw {|,"value":|};
      num ev.ev_value;
      Buffer.add_char buf '}')
    s.s_alerts;
  raw "]}"

let snapshot_to_string s =
  let buf = Buffer.create 4096 in
  snapshot_to_buffer buf s;
  Buffer.contents buf

let alert_to_json a =
  J.Obj
    [
      ("rule", J.Str (Slo.to_string a.a_rule));
      ("entity", J.Str a.a_entity);
      ("active", J.Bool a.a_active);
      ("first_fired", J.Num a.a_first_fired);
      ("last_fired", J.Num a.a_last_fired);
      ("breached_intervals", J.Num (float_of_int a.a_breaches));
      ("worst", J.Num a.a_worst);
    ]

let alerts_to_json t =
  J.versioned ~kind:"alerts"
    [ ("alerts", J.Arr (List.map alert_to_json (alerts t))) ]

let profile_to_json t = Option.map Profile.to_json t.profiler

(* OpenMetrics text exposition: cumulative values at call time, one
   family per metric name with entities as labels. *)

let om_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let om_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else J.float_repr v

let to_openmetrics t =
  let buf = Buffer.create 1024 in
  let families = ref [] in
  List.iter
    (fun item ->
      let name =
        match item with Metric m -> m.m_name | Hist h -> h.h_name
      in
      if not (List.mem name !families) then families := !families @ [ name ])
    t.items;
  List.iter
    (fun name ->
      let members =
        List.filter
          (fun item ->
            (match item with Metric m -> m.m_name | Hist h -> h.h_name) = name)
          t.items
      in
      let om_name = "lognic_" ^ name in
      let om_type =
        match members with
        | Metric { m_kind = Counter; _ } :: _ -> "counter"
        | Metric _ :: _ -> "gauge"
        | Hist _ :: _ -> "histogram"
        | [] -> "gauge"
      in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" om_name om_type);
      List.iter
        (fun item ->
          match item with
          | Metric m ->
            let label = Printf.sprintf "{entity=\"%s\"}" (om_escape m.m_entity) in
            let sample_name, value =
              match m.m_kind with
              | Counter -> (om_name ^ "_total", m.m_probe ())
              | Gauge -> (om_name, m.m_probe ())
              | Rate -> (om_name, m.m_rate)
            in
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" sample_name label (om_num value))
          | Hist h ->
            let entity = om_escape h.h_entity in
            let acc = ref 0 in
            Array.iteri
              (fun i bound ->
                acc := !acc + h.h_counts.(i);
                let le =
                  if Float.is_integer bound || bound = infinity then
                    if bound = infinity then "+Inf" else om_num bound
                  else J.float_repr bound
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket{entity=\"%s\",le=\"%s\"} %d\n"
                     om_name entity le !acc))
              h.h_bounds;
            Buffer.add_string buf
              (Printf.sprintf "%s_sum{entity=\"%s\"} %s\n" om_name entity
                 (om_num h.h_f.(0)));
            Buffer.add_string buf
              (Printf.sprintf "%s_count{entity=\"%s\"} %d\n" om_name entity
                 h.h_total))
        members)
    !families;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
