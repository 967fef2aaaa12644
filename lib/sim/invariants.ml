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

(* Violations kept verbatim in a report; a systemically broken
   run can fail millions of per-packet checks and the report should
   not grow with it. *)
let max_recorded = 100

type t = {
  mutable n_checks : int;
  mutable n_violations : int;
  mutable recorded : violation list;  (* newest first, capped *)
  mutable fates : Bytes.t;  (* bit [id] set while packet [id] is in flight *)
  mutable n_live : int;  (* bits set in [fates] *)
  mutable n_injected : int;
  mutable n_delivered : int;
  mutable n_dropped : int;
  last_event_time : float array;
      (* one slot: a mutable float field would box on every store *)
}

let create () =
  {
    n_checks = 0;
    n_violations = 0;
    recorded = [];
    fates = Bytes.make 128 '\000';
    n_live = 0;
    n_injected = 0;
    n_delivered = 0;
    n_dropped = 0;
    last_event_time = [| neg_infinity |];
  }

(* Counts a violation; true while it is still kept verbatim, so the
   per-packet checks format its strings only then. *)
let keep t =
  t.n_violations <- t.n_violations + 1;
  t.n_violations <= max_recorded

(* The per-event checks below are inlined at their call sites with the
   pass test on unboxed floats; only a failure reaches one of these
   out-of-line recorders, which box the floats and build the strings. *)
let[@inline never] violated t ~law ~entity ~time ~expected ~actual detail =
  if keep t then
    t.recorded <- { law; entity; time; expected; actual; detail } :: t.recorded

let[@inline never] packet_violated t ~law ~id ~time ~expected ~actual detail =
  if keep t then
    t.recorded <-
      {
        law;
        entity = Printf.sprintf "packet-%d" id;
        time;
        expected;
        actual;
        detail;
      }
      :: t.recorded

(* Relative closeness with an absolute floor of 1: laws about
   near-zero quantities (an idle medium's busy time, say) are judged
   at absolute [tol] rather than an impossible relative one. A NaN on
   either side fails: every comparison with it is false. The scale is
   [Float.max] spelled out, exact here because a NaN operand has
   already failed the test. *)
let[@inline] close ~tol expected actual =
  let ae = abs_float expected and aa = abs_float actual in
  let m = if ae > aa then ae else aa in
  abs_float (expected -. actual) <= tol *. if m > 1. then m else 1.

let[@inline] within ~tol ~limit actual =
  let al = abs_float limit in
  actual <= limit +. (tol *. if al > 1. then al else 1.)

let check_close t ~law ~entity ~time ?(tol = 1e-9) ~expected ~actual detail =
  t.n_checks <- t.n_checks + 1;
  if not (close ~tol expected actual) then
    violated t ~law ~entity ~time ~expected ~actual detail

let check_count t ~law ~entity ~time ~expected ~actual detail =
  t.n_checks <- t.n_checks + 1;
  if expected <> actual then
    violated t ~law ~entity ~time ~expected:(float_of_int expected)
      ~actual:(float_of_int actual) detail

let[@inline] bound t ~law ~entity ~time ~tol ~limit ~actual detail =
  t.n_checks <- t.n_checks + 1;
  if not (within ~tol ~limit actual) then
    violated t ~law ~entity ~time ~expected:limit ~actual detail

let check_bound t ~law ~entity ~time ?(tol = 1e-9) ~limit ~actual detail =
  bound t ~law ~entity ~time ~tol ~limit ~actual detail

let check_nonneg t ~law ~entity ~time ~actual detail =
  t.n_checks <- t.n_checks + 1;
  if not (actual >= 0.) then violated t ~law ~entity ~time ~expected:0. ~actual detail

let[@inline never] grow_fates t id =
  if id < 0 then invalid_arg "Invariants: packet ids must be non-negative";
  let old = t.fates in
  let bigger = Bytes.make (max ((id lsr 3) + 1) (2 * Bytes.length old)) '\000' in
  Bytes.blit old 0 bigger 0 (Bytes.length old);
  t.fates <- bigger

let[@inline] packet_injected t ~id ~time =
  t.n_checks <- t.n_checks + 1;
  t.n_injected <- t.n_injected + 1;
  let i = id lsr 3 and bit = 1 lsl (id land 7) in
  if i >= Bytes.length t.fates then grow_fates t id;
  let b = Char.code (Bytes.get t.fates i) in
  if b land bit <> 0 then
    packet_violated t ~law:"packet-fate" ~id ~time ~expected:0. ~actual:1.
      "packet id injected while already in flight"
  else begin
    Bytes.set t.fates i (Char.unsafe_chr (b lor bit));
    t.n_live <- t.n_live + 1
  end

let[@inline] resolve t ~id ~time detail =
  t.n_checks <- t.n_checks + 1;
  let i = id lsr 3 and bit = 1 lsl (id land 7) in
  let b = if i < Bytes.length t.fates then Char.code (Bytes.get t.fates i) else 0 in
  if b land bit <> 0 then begin
    Bytes.set t.fates i (Char.unsafe_chr (b land lnot bit));
    t.n_live <- t.n_live - 1
  end
  else
    packet_violated t ~law:"packet-fate" ~id ~time ~expected:1. ~actual:0. detail

let[@inline] packet_delivered t ~id ~time =
  t.n_delivered <- t.n_delivered + 1;
  resolve t ~id ~time
    "delivered without a live injection (double delivery/drop?)"

let[@inline] packet_dropped t ~id ~time =
  t.n_dropped <- t.n_dropped + 1;
  resolve t ~id ~time "dropped without a live injection (double delivery/drop?)"

(* The ledger's closing entry: injected = delivered + dropped +
   in-flight, and injected agrees with the traffic generator's own
   count ([generated]). *)
let check_conservation t ~time ~generated =
  check_count t ~law:"packet-conservation" ~entity:"run" ~time
    ~expected:t.n_injected
    ~actual:(t.n_delivered + t.n_dropped + t.n_live)
    "injected packets must equal delivered + dropped + in-flight at the horizon";
  check_count t ~law:"packet-conservation" ~entity:"run" ~time
    ~expected:generated ~actual:t.n_injected
    "the traffic generator's count must equal packets seen at ingress"

let[@inline] observe_event_time t time =
  t.n_checks <- t.n_checks + 1;
  let last = t.last_event_time.(0) in
  if time < last then
    violated t ~law:"event-monotonicity" ~entity:"engine" ~time ~expected:last
      ~actual:time "event queue popped a time earlier than its predecessor";
  t.last_event_time.(0) <- time

(* The {!Telemetry.summary} self-consistency laws: the drop breakdown
   sums to [dropped_packets], per-class delivered counts sum to
   [delivered_packets], the mean latency-term decomposition tiles
   [mean_latency], [throughput]/[packet_rate] agree with
   delivered bytes/packets over the window, [loss_rate] is in [0, 1],
   the window fits the horizon, and (when anything was delivered)
   p50 ≤ p99 ≤ max and mean ≤ max. *)
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

let[@inline] check_admitted t ~time ~limit node =
  let entity = Ip_node.label node in
  bound t ~law:"queue-capacity" ~entity ~time ~tol:1e-9 ~limit
    ~actual:(float_of_int (Ip_node.in_system node))
    "in-system requests must not exceed the queue capacity";
  bound t ~law:"engine-count" ~entity ~time ~tol:1e-9
    ~limit:(float_of_int (Ip_node.engines node))
    ~actual:(float_of_int (Ip_node.busy_engines node))
    "busy engines must not exceed the configured engine count"

let[@inline] check_medium t ~time m =
  bound t ~law:"medium-buffer" ~entity:(Medium.label m) ~time ~tol:1e-9
    ~limit:Medium.buffer ~actual:(Medium.backlog m)
    "admitted backlog must fit the rate-matching buffer"

let[@inline] check_delivery t ~id ~time fs =
  packet_delivered t ~id ~time;
  (* Eq. 2 tiling: each hop adds its pieces from the same event times
     that advance the clock, so only float rounding separates the
     two sides. *)
  t.n_checks <- t.n_checks + 1;
  let expected = time -. fs.(Telemetry.slot_born) in
  let actual =
    fs.(Telemetry.slot_queueing)
    +. fs.(Telemetry.slot_service)
    +. fs.(Telemetry.slot_wire)
    +. fs.(Telemetry.slot_overhead)
  in
  if not (close ~tol:1e-9 expected actual) then
    packet_violated t ~law:"latency-tiling" ~id ~time ~expected ~actual
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
