type violation = {
  law : string;
  entity : string;
  time : float;
  expected : float;
  actual : float;
  detail : string;
}

type report = {
  checks : int;
  total_violations : int;
  violations : violation list;
}

let max_recorded = 100

type t = {
  mutable n_checks : int;
  mutable n_violations : int;
  mutable recorded : violation list;  (* newest first, capped *)
  fates : (int, unit) Hashtbl.t;  (* injected, not yet resolved *)
  mutable n_injected : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  mutable last_event_time : float;
}

let create () =
  {
    n_checks = 0;
    n_violations = 0;
    recorded = [];
    fates = Hashtbl.create 1024;
    n_injected = 0;
    n_delivered = 0;
    n_dropped = 0;
    last_event_time = neg_infinity;
  }

let record t v =
  t.n_violations <- t.n_violations + 1;
  if t.n_violations <= max_recorded then t.recorded <- v :: t.recorded

(* Relative closeness with an absolute floor of 1: laws about
   near-zero quantities (an idle medium's busy time, say) are judged
   at absolute [tol] rather than an impossible relative one. *)
let close ~tol expected actual =
  abs_float (expected -. actual)
  <= tol *. Float.max 1. (Float.max (abs_float expected) (abs_float actual))

let check_close t ~law ~entity ~time ?(tol = 1e-9) ~expected ~actual detail =
  t.n_checks <- t.n_checks + 1;
  let pass =
    (* NaN actual must fail; comparisons involving NaN are false, so
       [close] already treats it as a violation. *)
    close ~tol expected actual
  in
  if not pass then record t { law; entity; time; expected; actual; detail }

let check_count t ~law ~entity ~time ~expected ~actual detail =
  t.n_checks <- t.n_checks + 1;
  if expected <> actual then
    record t
      {
        law;
        entity;
        time;
        expected = float_of_int expected;
        actual = float_of_int actual;
        detail;
      }

let check_bound t ~law ~entity ~time ?(tol = 1e-9) ~limit ~actual detail =
  t.n_checks <- t.n_checks + 1;
  let pass = actual <= limit +. (tol *. Float.max 1. (abs_float limit)) in
  if not pass then record t { law; entity; time; expected = limit; actual; detail }

let check_nonneg t ~law ~entity ~time ~actual detail =
  t.n_checks <- t.n_checks + 1;
  if not (actual >= 0.) then
    record t { law; entity; time; expected = 0.; actual; detail }

let packet_entity id = Printf.sprintf "packet-%d" id

let packet_injected t ~id ~time =
  t.n_checks <- t.n_checks + 1;
  t.n_injected <- t.n_injected + 1;
  if Hashtbl.mem t.fates id then
    record t
      {
        law = "packet-fate";
        entity = packet_entity id;
        time;
        expected = 0.;
        actual = 1.;
        detail = "packet id injected while already in flight";
      }
  else Hashtbl.replace t.fates id ()

let resolve t ~id ~time what =
  t.n_checks <- t.n_checks + 1;
  if Hashtbl.mem t.fates id then Hashtbl.remove t.fates id
  else
    record t
      {
        law = "packet-fate";
        entity = packet_entity id;
        time;
        expected = 1.;
        actual = 0.;
        detail =
          Printf.sprintf "%s without a live injection (double delivery/drop?)"
            what;
      }

let packet_delivered t ~id ~time =
  t.n_delivered <- t.n_delivered + 1;
  resolve t ~id ~time "delivered"

let packet_dropped t ~id ~time =
  t.n_dropped <- t.n_dropped + 1;
  resolve t ~id ~time "dropped"

let injected t = t.n_injected
let delivered t = t.n_delivered
let dropped t = t.n_dropped
let in_flight t = Hashtbl.length t.fates

let check_conservation t ~time ~generated =
  check_count t ~law:"packet-conservation" ~entity:"run" ~time
    ~expected:t.n_injected
    ~actual:(t.n_delivered + t.n_dropped + Hashtbl.length t.fates)
    "injected packets must equal delivered + dropped + in-flight at the horizon";
  check_count t ~law:"packet-conservation" ~entity:"run" ~time
    ~expected:generated ~actual:t.n_injected
    "the traffic generator's count must equal packets seen at ingress"

let observe_event_time t time =
  t.n_checks <- t.n_checks + 1;
  if time < t.last_event_time then
    record t
      {
        law = "event-monotonicity";
        entity = "engine";
        time;
        expected = t.last_event_time;
        actual = time;
        detail = "event queue popped a time earlier than its predecessor";
      };
  t.last_event_time <- time

let check_summary t ~horizon (s : Telemetry.summary) =
  let time = horizon in
  let entity = "summary" in
  check_bound t ~law:"window" ~entity ~time ~limit:horizon
    ~actual:s.Telemetry.window "the measurement window cannot exceed the horizon";
  check_nonneg t ~law:"window" ~entity ~time ~actual:s.window
    "the measurement window cannot be negative";
  check_count t ~law:"drop-breakdown" ~entity ~time ~expected:s.dropped_packets
    ~actual:(List.fold_left (fun acc (_, n) -> acc + n) 0 s.drop_breakdown)
    "per-site drop counts must sum to the aggregate drop counter";
  check_count t ~law:"class-conservation" ~entity ~time
    ~expected:s.delivered_packets
    ~actual:(List.fold_left (fun acc (_, n, _) -> acc + n) 0 s.per_class)
    "per-class delivered counts must sum to delivered packets";
  check_bound t ~law:"loss-rate" ~entity ~time ~limit:1. ~actual:s.loss_rate
    "the loss rate cannot exceed 1";
  check_nonneg t ~law:"loss-rate" ~entity ~time ~actual:s.loss_rate
    "the loss rate cannot be negative";
  if s.delivered_packets > 0 then begin
    (* Mean latency is an average of per-packet sums while the term
       decomposition averages each component separately; they tile the
       same total up to summation-order rounding, so the tolerance is
       looser than the default. *)
    check_close t ~law:"latency-terms" ~entity ~time ~tol:1e-6
      ~expected:s.mean_latency
      ~actual:(Telemetry.terms_total s.latency_terms)
      "mean queueing + service + wire + overhead must equal the mean latency";
    check_bound t ~law:"latency-order" ~entity ~time ~limit:s.p99_latency
      ~actual:s.p50_latency "p50 latency cannot exceed p99";
    check_bound t ~law:"latency-order" ~entity ~time ~limit:s.max_latency
      ~actual:s.p99_latency "p99 latency cannot exceed the maximum";
    check_bound t ~law:"latency-order" ~entity ~time ~limit:s.max_latency
      ~actual:s.mean_latency "mean latency cannot exceed the maximum"
  end;
  if s.window > 0. then begin
    check_close t ~law:"throughput" ~entity ~time
      ~expected:(s.delivered_bytes /. s.window)
      ~actual:s.throughput "throughput must be delivered bytes over the window";
    check_close t ~law:"packet-rate" ~entity ~time
      ~expected:(float_of_int s.delivered_packets /. s.window)
      ~actual:s.packet_rate
      "packet rate must be delivered packets over the window"
  end

let check_admitted t ~time ~limit node =
  let entity = Ip_node.label node in
  check_bound t ~law:"queue-capacity" ~entity ~time ~limit
    ~actual:(float_of_int (Ip_node.in_system node))
    "in-system requests must not exceed the queue capacity";
  check_bound t ~law:"engine-count" ~entity ~time
    ~limit:(float_of_int (Ip_node.engines node))
    ~actual:(float_of_int (Ip_node.busy_engines node))
    "busy engines must not exceed the configured engine count"

let check_medium t ~time m =
  check_bound t ~law:"medium-buffer" ~entity:(Medium.label m) ~time
    ~limit:Medium.buffer ~actual:(Medium.backlog m)
    "admitted backlog must fit the rate-matching buffer"

let check_delivery t ~id ~time fs =
  packet_delivered t ~id ~time;
  (* Eq. 2 tiling: each hop adds its pieces from the same event times
     that advance the clock, so only float rounding separates the
     two sides. *)
  check_close t ~law:"latency-tiling" ~entity:(packet_entity id) ~time ~tol:1e-9
    ~expected:(time -. fs.(Telemetry.slot_born))
    ~actual:
      (fs.(Telemetry.slot_queueing)
      +. fs.(Telemetry.slot_service)
      +. fs.(Telemetry.slot_wire)
      +. fs.(Telemetry.slot_overhead))
    "queueing + service + wire + overhead must equal birth-to-egress time"

let check_horizon t ~horizon ~nodes ~media ~generated ?(birth_bins = [||])
    summary =
  let time = horizon in
  List.iter
    (fun node ->
      let entity = Ip_node.label node in
      let busy = Ip_node.busy_within node ~until:horizon in
      check_bound t ~law:"utilization" ~entity ~time ~limit:1.
        ~actual:(Ip_node.utilization node ~until:horizon)
        "node utilization must not exceed 1 at the horizon";
      check_bound t ~law:"busy-time" ~entity ~time
        ~limit:(float_of_int (Ip_node.engines node) *. horizon)
        ~actual:busy "engine-busy seconds must fit engines times the horizon";
      check_nonneg t ~law:"busy-time" ~entity ~time ~actual:busy
        "horizon-clipped busy time cannot be negative")
    nodes;
  List.iter
    (fun m ->
      let entity = Medium.label m in
      let busy = Medium.busy_within m ~until:horizon in
      check_bound t ~law:"utilization" ~entity ~time ~limit:1.
        ~actual:(Medium.utilization m ~until:horizon)
        "medium utilization must not exceed 1 at the horizon";
      check_bound t ~law:"busy-time" ~entity ~time ~limit:horizon ~actual:busy
        "medium-busy seconds must fit the horizon";
      check_nonneg t ~law:"busy-time" ~entity ~time ~actual:busy
        "horizon-clipped busy time cannot be negative")
    media;
  check_conservation t ~time ~generated;
  Array.iteri
    (fun i (offered, resolved) ->
      check_bound t ~law:"interval-accounting"
        ~entity:(Printf.sprintf "interval-%d" i) ~time
        ~limit:(float_of_int offered) ~actual:(float_of_int resolved)
        "a birth bin cannot resolve more packets than it offered")
    birth_bins;
  check_summary t ~horizon summary

let report t =
  {
    checks = t.n_checks;
    total_violations = t.n_violations;
    violations = List.rev t.recorded;
  }

let ok r = r.total_violations = 0

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s at t=%g: %s (expected %g, got %g)" v.law v.entity
    v.time v.detail v.expected v.actual

let violation_to_json v =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("law", J.Str v.law);
      ("entity", J.Str v.entity);
      ("time", J.Num v.time);
      ("expected", J.Num v.expected);
      ("actual", J.Num v.actual);
      ("detail", J.Str v.detail);
    ]

let report_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("checks", J.Num (float_of_int r.checks));
      ("violations", J.Num (float_of_int r.total_violations));
      ("recorded", J.Arr (List.map violation_to_json r.violations));
    ]
