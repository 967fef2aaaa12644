(* Tests for the discrete-event simulator: primitives (event queue,
   engine, media, IP nodes), telemetry, and agreement between the
   simulator and the analytical model — the repo's central
   cross-validation. *)

open Helpers
module S = Lognic_sim
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic
module N = Lognic_numerics

(* Event queue *)

module Q = S.Event_queue

(* One pop through the engine's locate/located_time/take triple. *)
let pop_before q ~horizon =
  if Q.locate q ~horizon then
    let time = Q.located_time q in
    Some (time, Q.take q)
  else None

let pop q = pop_before q ~horizon:infinity

let event_queue_orders_by_time () =
  let q = Q.create () in
  List.iter (fun (t, v) -> Q.push q ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  Alcotest.(check int) "size" 3 (Q.size q);
  Alcotest.(check (option (float 0.))) "peek" (Some 1.)
    (if Q.locate q ~horizon:infinity then Some (Q.located_time q) else None);
  let order = List.init 3 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (pop q = None && Q.size q = 0)

let event_queue_fifo_on_ties () =
  let q = Q.create () in
  List.iter (fun v -> Q.push q ~time:5. v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list int)) "insertion order on equal times" [ 1; 2; 3; 4 ] order

let event_queue_interleaved () =
  let q = Q.create () in
  (* push/pop interleaving across growth boundaries *)
  for i = 0 to 99 do
    Q.push q ~time:(float_of_int (100 - i)) i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match pop q with
    | None -> ()
    | Some (t, _) ->
      Alcotest.(check bool) "non-decreasing" true (t >= !last);
      last := t;
      incr count;
      drain ()
  in
  drain ();
  Alcotest.(check int) "all events" 100 !count

let event_queue_rejects_nan () =
  let q = Q.create () in
  check_raises_invalid "nan time" (fun () -> Q.push q ~time:Float.nan ())

let event_queue_locate_horizon () =
  let q = Q.create () in
  List.iter (fun (t, v) -> Q.push q ~time:t v) [ (1., "a"); (5., "b") ];
  Alcotest.(check (option (pair (float 0.) string)))
    "pops events within the horizon" (Some (1., "a"))
    (pop_before q ~horizon:3.);
  Alcotest.(check (option (pair (float 0.) string)))
    "leaves events past the horizon" None
    (pop_before q ~horizon:3.);
  Alcotest.(check int) "later event still queued" 1 (Q.size q);
  Alcotest.(check (option (pair (float 0.) string)))
    "inclusive at the horizon" (Some (5., "b"))
    (pop_before q ~horizon:5.);
  Alcotest.(check (option (pair (float 0.) string)))
    "empty queue" None
    (pop_before q ~horizon:infinity)

(* A fresh block, pushed from its own frame so no local of the test
   keeps it alive. *)
let[@inline never] push_watched q w =
  let payload = ref 1 in
  Weak.set w 0 (Some payload);
  Q.push q ~time:1. payload

let event_queue_releases_taken () =
  let q = Q.create () in
  (* the first payload ever pushed is the filler that taken slots hold *)
  Q.push q ~time:0. (ref 0);
  let w = Weak.create 1 in
  push_watched q w;
  Alcotest.(check bool) "filler first" true (pop q <> None);
  Alcotest.(check bool) "watched payload next" true
    (Q.locate q ~horizon:infinity && Q.located_time q = 1.);
  ignore (Q.take q);
  Gc.full_major ();
  Alcotest.(check bool) "taken payload collected" false (Weak.check w 0);
  (* the queue itself must outlive the collection *)
  Alcotest.(check int) "queue still live" 0 (Q.size q)

let event_queue_take_needs_locate () =
  let q = Q.create () in
  check_raises_invalid "empty queue" (fun () -> Q.take q);
  Q.push q ~time:2. "a";
  check_raises_invalid "no locate yet" (fun () -> Q.take q);
  Alcotest.(check bool) "locate past the horizon fails" false
    (Q.locate q ~horizon:1.);
  check_raises_invalid "after a failed locate" (fun () -> Q.take q);
  Alcotest.(check bool) "locate" true (Q.locate q ~horizon:infinity);
  Q.push q ~time:1. "b";
  check_raises_invalid "after an intervening push" (fun () -> Q.take q);
  Alcotest.(check bool) "relocate" true (Q.locate q ~horizon:infinity);
  Alcotest.(check string) "earliest after the push" "b" (Q.take q);
  check_raises_invalid "after a take" (fun () -> Q.take q);
  Alcotest.(check bool) "locate before clear" true (Q.locate q ~horizon:infinity);
  Q.clear q;
  check_raises_invalid "after clear" (fun () -> Q.take q);
  Alcotest.(check int) "cleared" 0 (Q.size q)

let event_queue_size_skips_empty_root () =
  let q = Q.create () in
  List.iter (fun t -> Q.push q ~time:t ()) [ 1.; 2.; 3. ];
  Alcotest.(check bool) "locate" true (Q.locate q ~horizon:infinity);
  Q.take q;
  Alcotest.(check int) "between take and the next op" 2 (Q.size q);
  Alcotest.(check bool) "locate refills the root" true
    (Q.locate q ~horizon:infinity);
  Alcotest.(check int) "after locate" 2 (Q.size q);
  Q.take q;
  Q.push q ~time:4. ();
  Alcotest.(check int) "a push fills the empty root" 2 (Q.size q)

(* A hold model: each push lands at or after the last popped time, so
   every pop must be strictly later in (time, seq) than the one before;
   increments of 0 make ties. Popping every other push grows the queue
   to ~5000 events through several doublings. *)
let event_queue_sorted_across_doublings () =
  let q = Q.create () in
  let pass () =
    let clock = ref 0. and last = ref (neg_infinity, -1) and popped = ref 0 in
    let pop () =
      match pop q with
      | None -> Alcotest.fail "event missing"
      | Some (time, i) ->
        if compare (time, i) !last <= 0 then
          Alcotest.failf "event %d at %g popped out of (time, seq) order" i time;
        last := (time, i);
        clock := time;
        incr popped
    in
    for i = 0 to 9_999 do
      Q.push q ~time:(!clock +. float_of_int (i * 37 mod 5)) i;
      if i mod 2 = 1 then pop ()
    done;
    while Q.size q > 0 do
      pop ()
    done;
    Alcotest.(check int) "every event popped" 10_000 !popped
  in
  pass ();
  let resizes = Q.resizes q in
  Alcotest.(check bool) "storage doubled" true (resizes >= 5);
  Q.clear q;
  pass ();
  Alcotest.(check int) "no doubling on reuse" resizes (Q.resizes q)

(* Engine *)

let engine_runs_in_order () =
  let e = S.Engine.create () in
  let log = ref [] in
  S.Engine.schedule e ~at:2. (fun () -> log := "b" :: !log);
  S.Engine.schedule e ~at:1. (fun () ->
      log := "a" :: !log;
      (* events scheduled during execution still run *)
      S.Engine.schedule_after e ~delay:0.5 (fun () -> log := "a2" :: !log));
  S.Engine.run e;
  Alcotest.(check (list string)) "causal order" [ "a"; "a2"; "b" ] (List.rev !log);
  check_close "clock at last event" 2. (S.Engine.now e)

let engine_observer_reads_clock () =
  let e = S.Engine.create () in
  let seen = ref [] and ran = ref [] in
  List.iter
    (fun at -> S.Engine.schedule e ~at (fun () -> ran := S.Engine.now e :: !ran))
    [ 0.5; 0.2; 0.2; 0.1 ];
  S.Engine.run ~observer:(fun () -> seen := S.Engine.now e :: !seen) e;
  Alcotest.(check (list (float 0.))) "observer sees each event's time, in pop order"
    [ 0.1; 0.2; 0.2; 0.5 ] (List.rev !seen);
  Alcotest.(check (list (float 0.))) "the event runs at the time observed"
    (List.rev !seen) (List.rev !ran)

let engine_horizon () =
  let e = S.Engine.create () in
  let fired = ref false in
  S.Engine.schedule e ~at:10. (fun () -> fired := true);
  S.Engine.run ~until:5. e;
  Alcotest.(check bool) "future event not fired" false !fired;
  check_close "clock clamped to horizon" 5. (S.Engine.now e);
  S.Engine.run e;
  Alcotest.(check bool) "event still pending" true !fired

let engine_rejects_past () =
  let e = S.Engine.create () in
  S.Engine.schedule e ~at:3. (fun () -> ());
  S.Engine.run e;
  check_raises_invalid "past event" (fun () -> S.Engine.schedule e ~at:1. (fun () -> ()))

(* Medium *)

let medium_serializes () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. () in
  let done_at = ref [] in
  (* two 50-byte transfers at t=0 on a 100 B/s bus: finish at 0.5, 1.0 *)
  ignore (S.Medium.transfer m ~bytes:50. (fun () -> done_at := S.Engine.now e :: !done_at));
  ignore (S.Medium.transfer m ~bytes:50. (fun () -> done_at := S.Engine.now e :: !done_at));
  S.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "FIFO serialization" [ 1.0; 0.5 ] !done_at;
  check_close "busy time" 1. (S.Medium.busy_within m ~until:1.);
  check_close "utilization" 1. (S.Medium.utilization m ~until:1.)

let medium_zero_bytes_passthrough () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. () in
  let fired = ref false in
  ignore (S.Medium.transfer m ~bytes:0. (fun () -> fired := true));
  Alcotest.(check bool) "immediate" true !fired;
  check_close "no busy time" 0. (S.Medium.busy_within m ~until:1.)

let medium_buffer_rejects () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. () in
  (* two transfers of 80% of the 2 MiB buffer: the second overflows *)
  let bytes = 0.8 *. S.Medium.buffer in
  Alcotest.(check bool) "first accepted" true (S.Medium.transfer m ~bytes ignore);
  Alcotest.(check bool) "overflow rejected" false (S.Medium.transfer m ~bytes ignore);
  Alcotest.(check int) "rejection counted" 1 (S.Medium.rejections m);
  (* after draining there is room again *)
  S.Engine.run e;
  Alcotest.(check bool) "accepted after drain" true (S.Medium.transfer m ~bytes ignore)

(* Ip_node *)

let node ?(engines = 1) ?(rate = 100.) ?(capacity = 4) ?(dist = S.Ip_node.Deterministic) e =
  S.Ip_node.create e
    ~rng:(N.Rng.create ~seed:1)
    ~label:"n" ~engines ~rate_per_engine:rate ~queue_capacity:capacity
    ~service_dist:dist

let ip_node_serves_fifo () =
  let e = S.Engine.create () in
  let n = node e in
  let completions = ref [] in
  for i = 1 to 3 do
    ignore (S.Ip_node.submit_at n ~queue:0 ~work:100. (fun () -> completions := (i, S.Engine.now e) :: !completions))
  done;
  S.Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "sequential service" [ (3, 3.); (2, 2.); (1, 1.) ] !completions;
  Alcotest.(check int) "completions" 3 (S.Ip_node.completions n)

let ip_node_parallel_engines () =
  let e = S.Engine.create () in
  let n = node ~engines:2 e in
  let finished = ref [] in
  for _ = 1 to 2 do
    ignore (S.Ip_node.submit_at n ~queue:0 ~work:100. (fun () -> finished := S.Engine.now e :: !finished))
  done;
  S.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "both served concurrently" [ 1.; 1. ] !finished

let ip_node_drops_when_full () =
  let e = S.Engine.create () in
  let n = node ~capacity:2 e in
  Alcotest.(check bool) "1 in service" true (S.Ip_node.submit_at n ~queue:0 ~work:100. ignore);
  Alcotest.(check bool) "1 queued" true (S.Ip_node.submit_at n ~queue:0 ~work:100. ignore);
  Alcotest.(check bool) "3rd rejected" false (S.Ip_node.submit_at n ~queue:0 ~work:100. ignore);
  Alcotest.(check int) "drop counted" 1 (S.Ip_node.drops n);
  Alcotest.(check int) "in system" 2 (S.Ip_node.in_system n)

let ip_node_zero_work_passthrough () =
  let e = S.Engine.create () in
  let n = node e in
  let fired = ref false in
  ignore (S.Ip_node.submit_at n ~queue:0 ~work:0. (fun () -> fired := true));
  Alcotest.(check bool) "immediate" true !fired

let ip_node_zero_work_fifo () =
  (* The reordering bugfix: a zero-work request submitted while earlier
     work is queued must complete after it, not bypass the queue. *)
  let e = S.Engine.create () in
  let n = node e in
  let order = ref [] in
  ignore (S.Ip_node.submit_at n ~queue:0 ~work:100. (fun () -> order := `Work1 :: !order));
  ignore (S.Ip_node.submit_at n ~queue:0 ~work:100. (fun () -> order := `Work2 :: !order));
  ignore (S.Ip_node.submit_at n ~queue:0 ~work:0. (fun () -> order := `Zero :: !order));
  S.Engine.run e;
  Alcotest.(check bool) "FIFO preserved" true
    (List.rev !order = [ `Work1; `Work2; `Zero ]);
  (* queued zero-work is subject to capacity like any request *)
  let n2 = node ~capacity:2 e in
  ignore (S.Ip_node.submit_at n2 ~queue:0 ~work:100. ignore);
  ignore (S.Ip_node.submit_at n2 ~queue:0 ~work:100. ignore);
  Alcotest.(check bool) "queued zero-work can drop" false
    (S.Ip_node.submit_at n2 ~queue:0 ~work:0. ignore)

let ip_node_overload_utilization () =
  (* Busy-time clipping: a service in flight at the horizon must only
     contribute its pre-horizon share, so utilization stays <= 1. *)
  let e = S.Engine.create () in
  let n = node ~capacity:16 e in
  (* 10 x 1s services, horizon 2.5s: without clipping busy = 3s *)
  for _ = 1 to 10 do
    ignore (S.Ip_node.submit_at n ~queue:0 ~work:100. ignore)
  done;
  S.Engine.run ~until:2.5 e;
  check_close "clipped busy" 2.5 (S.Ip_node.busy_within n ~until:2.5);
  check_close "utilization capped" 1. (S.Ip_node.utilization n ~until:2.5);
  Alcotest.(check bool) "never above 1" true
    (S.Ip_node.utilization n ~until:2.5 <= 1.)

(* A traced service's lane is the completion slot it holds: concurrent
   services on a 4-engine node report four distinct lanes, and the lane
   a completion frees is the one the next queued request starts on. A
   zero-work request on the fast path reports lane 0 with zero queue
   and service time, so its sampled record keeps no span, and it holds
   no slot. *)
let ip_node_lanes_are_slots () =
  let e = S.Engine.create () in
  let n = node ~engines:4 ~capacity:8 e in
  let trace =
    S.Trace.create ~config:{ S.Trace.reservoir = 8 } ~rng:(N.Rng.create ~seed:1) ()
  in
  let packets = ref 0 in
  let submit ~work =
    let hop = S.Hop.create () in
    hop.record <-
      S.Trace.on_packet trace ~packet:!packets ~born:(S.Engine.now e) ~size:work
        ~klass:0;
    incr packets;
    ignore (S.Ip_node.submit_at ~hop n ~queue:0 ~work ignore);
    hop
  in
  let lanes (hop : S.Hop.t) =
    match hop.record with
    | None -> Alcotest.fail "every packet is sampled"
    | Some r ->
      List.filter_map
        (fun (s : S.Trace.span) ->
          if s.phase = S.Trace.Service then Some s.lane else None)
        (List.rev r.rev_spans)
  in
  (* four concurrent services; the third finishes first *)
  let running = List.map (fun work -> submit ~work) [ 400.; 300.; 100.; 200. ] in
  Alcotest.(check (list int))
    "distinct lanes in [0, 4)" [ 0; 1; 2; 3 ]
    (List.sort compare (List.concat_map lanes running));
  let zero = submit ~work:0. in
  Alcotest.(check (list int)) "zero-work fast path: no span" [] (lanes zero);
  Alcotest.(check (float 0.)) "zero-work fast path: no time" 0.
    (zero.fs.(S.Telemetry.slot_queueing) +. zero.fs.(S.Telemetry.slot_service));
  let waiting = submit ~work:100. in
  Alcotest.(check (list int)) "queued: not started" [] (lanes waiting);
  S.Engine.run e;
  Alcotest.(check (list int))
    "freed lane is the next start's" (lanes (List.nth running 2)) (lanes waiting)

let medium_overload_utilization () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. () in
  (* 3 x 1s transfers, horizon 2.5s: raw busy 3s, clipped 2.5s *)
  for _ = 1 to 3 do
    ignore (S.Medium.transfer m ~bytes:100. ignore)
  done;
  S.Engine.run ~until:2.5 e;
  check_close "raw busy keeps the full accrual" 3. (S.Medium.busy_within m ~until:3.);
  check_close "clipped busy" 2.5 (S.Medium.busy_within m ~until:2.5);
  check_close "utilization capped" 1. (S.Medium.utilization m ~until:2.5);
  check_close "backlog at horizon" 50. (S.Medium.backlog m)

let ip_node_matches_mm1n () =
  (* A single-engine exponential node under Poisson load is M/M/1/N;
     its measured drop rate must match the closed form. *)
  let e = S.Engine.create () in
  let rng = N.Rng.create ~seed:42 in
  let n = node ~capacity:4 ~dist:S.Ip_node.Exponential ~rate:100. e in
  let lambda = 0.9 and mu = 1. in
  (* work = 100 bytes at rate 100 B/s -> 1s mean service *)
  let offered = ref 0 in
  let horizon = 200_000. in
  let rec arrival () =
    let now = S.Engine.now e in
    if now < horizon then begin
      incr offered;
      ignore (S.Ip_node.submit_at n ~queue:0 ~work:100. ignore);
      let gap = N.Dist.sample_exponential ~rate:lambda rng in
      S.Engine.schedule e ~at:(now +. gap) arrival
    end
  in
  S.Engine.schedule e ~at:0.001 arrival;
  S.Engine.run ~until:horizon e;
  let measured_drop = float_of_int (S.Ip_node.drops n) /. float_of_int !offered in
  let predicted =
    (Lognic_queueing.Mm1n.solve
       (Lognic_queueing.Mm1n.create ~lambda ~mu ~capacity:4))
      .blocking
  in
  check_within ~pct:5. "blocking matches closed form" predicted measured_drop

(* Telemetry *)

let site_ip0 = S.Telemetry.Node_queue { node = "ip"; queue = 0 }

(* A flight's scratch array as the simulator fills it by egress. *)
let no_terms =
  { S.Telemetry.queueing = 0.; service = 0.; wire = 0.; overhead = 0. }

let flight ?(terms = no_terms) ?now ~born ~size () =
  let module T = S.Telemetry in
  let fs = Array.make T.flight_slots 0. in
  fs.(T.slot_queueing) <- terms.T.queueing;
  fs.(T.slot_service) <- terms.T.service;
  fs.(T.slot_wire) <- terms.T.wire;
  fs.(T.slot_overhead) <- terms.T.overhead;
  fs.(T.slot_born) <- born;
  fs.(T.slot_size) <- size;
  fs.(T.slot_now) <- Option.value now ~default:born;
  fs

let complete t ?terms ~now ~born ~size ~klass () =
  S.Telemetry.record_completion_fs t ~fs:(flight ?terms ~now ~born ~size ()) ~klass

let drop t ~born site =
  S.Telemetry.record_drop_counted t
    (flight ~born ~size:100. ())
    (S.Telemetry.drop_counter t site)

let arrive t ~now ~size =
  S.Telemetry.record_arrival t (flight ~born:now ~size ())

let telemetry_windows () =
  let t = S.Telemetry.create ~warmup:10. ~classes:1 in
  (* before warmup: ignored *)
  arrive t ~now:5. ~size:100.;
  complete t ~now:8. ~born:5. ~size:100. ~klass:0 ();
  (* after warmup *)
  arrive t ~now:11. ~size:100.;
  complete t ~now:12. ~born:11. ~size:100. ~klass:0 ();
  arrive t ~now:13. ~size:100.;
  drop t ~born:13. site_ip0;
  let s = S.Telemetry.summarize t ~horizon:20. in
  Alcotest.(check int) "offered in window" 2 s.offered_packets;
  Alcotest.(check int) "delivered in window" 1 s.delivered_packets;
  Alcotest.(check int) "dropped in window" 1 s.dropped_packets;
  check_close "window" 10. s.window;
  check_close "throughput" 10. s.throughput;
  check_close "mean latency" 1. s.mean_latency;
  check_close "loss rate" 0.5 s.loss_rate

let telemetry_drop_attribution () =
  (* The warmup bugfix: a packet born before the cutoff but dropped
     inside the window was counted as dropped-but-never-offered, letting
     loss_rate exceed 1. Drops are now windowed by birth time. *)
  let t = S.Telemetry.create ~warmup:10. ~classes:1 in
  arrive t ~now:9. ~size:100.;  (* not offered *)
  drop t ~born:9. site_ip0;  (* not counted *)
  arrive t ~now:11. ~size:100.;
  drop t ~born:11. site_ip0;
  let s = S.Telemetry.summarize t ~horizon:20. in
  Alcotest.(check int) "pre-warmup birth excluded" 1 s.dropped_packets;
  Alcotest.(check bool) "loss rate consistent" true (s.loss_rate <= 1.);
  check_close "loss rate" 1. s.loss_rate;
  (* site attribution: the breakdown totals the aggregate counter *)
  let medium = S.Telemetry.Medium_buffer "interface" in
  arrive t ~now:14. ~size:100.;
  drop t ~born:14. medium;
  arrive t ~now:15. ~size:100.;
  drop t ~born:15. medium;
  let s = S.Telemetry.summarize t ~horizon:20. in
  Alcotest.(check int) "aggregate drops" 3 s.dropped_packets;
  Alcotest.(check int) "breakdown sums to aggregate" 3
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.drop_breakdown);
  (match s.drop_breakdown with
  | [ (m, 2); (n, 1) ] ->
    Alcotest.(check string) "largest site first" "medium:interface"
      (S.Telemetry.drop_site_name m);
    Alcotest.(check string) "node site name" "node:ip/q0"
      (S.Telemetry.drop_site_name n)
  | _ -> Alcotest.fail "drop breakdown shape")

let telemetry_latency_terms () =
  let t = S.Telemetry.create ~warmup:0. ~classes:1 in
  let terms q s w o =
    { S.Telemetry.queueing = q; service = s; wire = w; overhead = o }
  in
  complete t ~now:10. ~born:0. ~terms:(terms 4. 3. 2. 1.) ~size:100. ~klass:0 ();
  complete t ~now:12. ~born:10. ~terms:(terms 0. 1. 1. 0.) ~size:100. ~klass:0 ();
  let s = S.Telemetry.summarize t ~horizon:20. in
  check_close "mean queueing" 2. s.latency_terms.queueing;
  check_close "mean service" 2. s.latency_terms.service;
  check_close "mean wire" 1.5 s.latency_terms.wire;
  check_close "mean overhead" 0.5 s.latency_terms.overhead;
  check_close "components sum to mean latency" s.mean_latency
    (S.Telemetry.terms_total s.latency_terms)

let telemetry_per_class () =
  let t = S.Telemetry.create ~warmup:0. ~classes:2 in
  complete t ~now:1. ~born:0. ~size:64. ~klass:0 ();
  complete t ~now:3. ~born:0. ~size:1500. ~klass:1 ();
  complete t ~now:5. ~born:0. ~size:1500. ~klass:1 ();
  let s = S.Telemetry.summarize t ~horizon:10. in
  (match s.per_class with
  | [ (0, 1, l0); (1, 2, l1) ] ->
    check_close "class 0 latency" 1. l0;
    check_close "class 1 latency" 4. l1
  | _ -> Alcotest.fail "per-class breakdown")

(* The attribution table: every field follows the one birth-time
   window, and the log₂ histogram reports p99 as a bucket bound clamped
   to the row's maximum. *)
let telemetry_table () =
  let module Tb = S.Telemetry.Table in
  let check_fields msg want t row =
    Alcotest.(
      check
        (pair
           (pair (triple int int int) (pair (float 0.) (float 0.)))
           (pair (triple (float 0.) (float 0.) (float 0.)) (float 0.))))
      msg want
      ( ( (Tb.offered t row, Tb.dropped t row, Tb.delivered t row),
          (Tb.offered_bytes t row, Tb.delivered_bytes t row) ),
        ( (Tb.mean_latency t row, Tb.max_latency t row, Tb.p99 t row),
          S.Telemetry.terms_total (Tb.mean_terms t row) ) )
  in
  let record_all t ~row fs =
    Tb.record_offered t ~row fs;
    Tb.record_delivered t ~row fs;
    Tb.record_dropped t ~row fs
  in
  let t = Tb.create ~rows:2 ~cutoff:10. in
  let terms =
    { S.Telemetry.queueing = 1.; service = 0.5; wire = 0.25; overhead = 0.25 }
  in
  record_all t ~row:0 (flight ~terms ~born:(Float.pred 10.) ~now:12. ~size:100. ());
  check_fields "born just before the cutoff: counted nowhere"
    (((0, 0, 0), (0., 0.)), ((0., 0., 0.), 0.))
    t 0;
  record_all t ~row:1 (flight ~terms ~born:10. ~now:12. ~size:100. ());
  check_fields "born at the cutoff: counted everywhere"
    (((1, 1, 1), (100., 100.)), ((2., 2., 2.), 2.))
    t 1;
  let all = Tb.create ~rows:1 ~cutoff:0. in
  List.iter
    (fun born -> record_all all ~row:0 (flight ~born ~now:(born +. 1.) ~size:1. ()))
    [ 0.; 1e-9; 5. ];
  Alcotest.(check (triple int int int))
    "cutoff 0: every packet counts" (3, 3, 3)
    (Tb.offered all 0, Tb.dropped all 0, Tb.delivered all 0);
  let lat = Float.ldexp 1. (-20) in
  let h = Tb.create ~rows:4 ~cutoff:0. in
  for _ = 1 to 100 do
    Tb.record_delivered h ~row:0 (flight ~born:0. ~now:lat ~size:1. ())
  done;
  let exact = Alcotest.(check (float 0.)) in
  exact "identical 2^-20 s latencies: p99 = 2^-20" lat (Tb.p99 h 0);
  (* one slow packet in a hundred stays above the 99th, so p99 is the
     upper bound of the other 99's bucket: 2^-20 for 2^-20 s latencies
     (bucket 19, upper-inclusive), 2^-39 for zero latencies (bucket 0) *)
  let one_slow row fast =
    for i = 1 to 100 do
      let now = if i = 100 then 1. else fast in
      Tb.record_delivered h ~row (flight ~born:0. ~now ~size:1. ())
    done
  in
  one_slow 1 lat;
  exact "p99 is the bucket's upper bound" lat (Tb.p99 h 1);
  one_slow 2 0.;
  exact "zero latency lands in bucket 0" (Float.ldexp 1. (-39)) (Tb.p99 h 2);
  check_fields "empty row reports 0" (((0, 0, 0), (0., 0.)), ((0., 0., 0.), 0.)) h 3;
  (* Bucket k holds (2^(k-40), 2^(k-39)], clamped to [0, 64): check
     every power of two 2^j for j in [-45, 30] and its two float
     neighbours, each recorded into a row of its own. *)
  let edges =
    List.concat_map
      (fun j ->
        let p = Float.ldexp 1. j in
        [ Float.pred p; p; Float.succ p ])
      (List.init 76 (fun i -> i - 45))
  in
  let e = Tb.create ~rows:(List.length edges) ~cutoff:0. in
  List.iteri
    (fun row x ->
      Tb.record_delivered e ~row (flight ~born:0. ~now:x ~size:1. ());
      let b =
        List.find
          (fun b -> Tb.bucket_count e row b = 1)
          (List.init Tb.buckets Fun.id)
      in
      let lower = if b = 0 then neg_infinity else Float.ldexp 1. (b - 40) in
      let upper =
        if b = Tb.buckets - 1 then infinity else Float.ldexp 1. (b - 39)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%h lands in bucket %d = (%h, %h]" x b lower upper)
        true
        (lower < x && x <= upper))
    edges

(* Series ring buffers *)

let series_ring_overwrites () =
  let s = S.Telemetry.Series.create ~label:"depth" ~interval:1. () in
  let capacity = 4096 in
  for i = 1 to capacity + 2 do
    S.Telemetry.Series.add s ~time:(float_of_int i) ~value:(float_of_int (10 * i))
  done;
  let a = S.Telemetry.Series.to_array s in
  Alcotest.(check int) "bounded length" capacity (Array.length a);
  let sample = Alcotest.(pair (float 0.) (float 0.)) in
  Alcotest.check sample "oldest survivor first" (3., 30.) a.(0);
  let last = float_of_int (capacity + 2) in
  Alcotest.check sample "newest last" (last, 10. *. last) a.(capacity - 1);
  Alcotest.(check string) "label" "depth" (S.Telemetry.Series.label s);
  check_raises_invalid "bad interval" (fun () ->
      S.Telemetry.Series.create ~label:"x" ~interval:0. ())

let series_csv () =
  let s = S.Telemetry.Series.create ~label:"q" ~interval:0.5 () in
  S.Telemetry.Series.add s ~time:0.5 ~value:2.;
  S.Telemetry.Series.add s ~time:1. ~value:3.;
  Alcotest.(check string) "csv" "time,q\n0.5,2\n1,3\n"
    (S.Telemetry.Series.to_csv s)

(* JSON round-trips *)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return S.Telemetry.Json.Null;
        map (fun b -> S.Telemetry.Json.Bool b) bool;
        (* finite floats only: JSON has no representation for nan/inf *)
        map (fun x -> S.Telemetry.Json.Num x) (float_bound_inclusive 1e6);
        map (fun i -> S.Telemetry.Json.Num (float_of_int i)) (int_range (-1000) 1000);
        map (fun s -> S.Telemetry.Json.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun xs -> S.Telemetry.Json.Arr xs)
                (list_size (int_range 0 4) (value (depth - 1))));
          ( 1,
            map (fun kvs -> S.Telemetry.Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 1 8))
                    (value (depth - 1)))) );
        ]
  in
  value 3

let json_roundtrip_prop =
  prop "JSON print/parse round-trips" ~count:300
    (QCheck.make json_gen)
    (fun v ->
      match S.Telemetry.Json.of_string (S.Telemetry.Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let summary_json_roundtrip () =
  let t = S.Telemetry.create ~warmup:0. ~classes:1 in
  arrive t ~now:1. ~size:100.;
  complete t ~now:2. ~born:1.
    ~terms:{ S.Telemetry.queueing = 0.5; service = 0.3; wire = 0.2; overhead = 0. }
    ~size:100. ~klass:0 ();
  arrive t ~now:3. ~size:100.;
  drop t ~born:3. site_ip0;
  let s = S.Telemetry.summarize t ~horizon:10. in
  let json = S.Telemetry.to_json s in
  match S.Telemetry.Json.of_string (S.Telemetry.Json.to_string json) with
  | Error e -> Alcotest.failf "summary JSON does not parse back: %s" e
  | Ok parsed ->
    Alcotest.(check bool) "round-trips structurally" true (parsed = json);
    (match S.Telemetry.Json.member "dropped_packets" parsed with
    | Some (S.Telemetry.Json.Num n) -> check_close "dropped" 1. n
    | _ -> Alcotest.fail "dropped_packets missing");
    (match S.Telemetry.Json.member "drop_breakdown" parsed with
    | Some (S.Telemetry.Json.Arr [ site ]) ->
      (match S.Telemetry.Json.member "site" site with
      | Some (S.Telemetry.Json.Str name) ->
        Alcotest.(check string) "site key" "node:ip/q0" name
      | _ -> Alcotest.fail "site missing")
    | _ -> Alcotest.fail "drop_breakdown missing")

(* Netsim: end-to-end *)


let netsim_conservation () =
  let g = pipeline () in
  let traffic = T.make ~rate:(3.9 *. U.gbps) ~packet_size:1500. in
  let m = S.Netsim.run_single g ~hw ~traffic in
  let s = m.summary in
  (* every offered packet is delivered, dropped, or still in flight *)
  Alcotest.(check bool)
    "conservation" true
    (s.offered_packets >= s.delivered_packets + s.dropped_packets);
  let in_flight = s.offered_packets - s.delivered_packets - s.dropped_packets in
  Alcotest.(check bool) "small in-flight residue" true (in_flight < 200)

let netsim_deterministic () =
  let g = pipeline () in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let run () =
    (S.Netsim.run_single g ~hw ~traffic).summary.S.Telemetry.mean_latency
  in
  check_close "same seed, same result" (run ()) (run ())

let netsim_seed_matters () =
  let g = pipeline () in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let with_seed seed =
    (S.Netsim.run_single
       ~config:S.Netsim.Config.(default |> with_seed seed)
       g ~hw ~traffic)
      .summary.S.Telemetry.mean_latency
  in
  Alcotest.(check bool) "different seeds differ" true (with_seed 1 <> with_seed 2)

let netsim_matches_model_throughput () =
  let g = pipeline () in
  List.iter
    (fun load ->
      let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
      let model = Lognic.Latency.evaluate g ~hw ~traffic in
      let m =
        S.Netsim.run_single
          ~config:S.Netsim.Config.(default |> with_horizon ~warmup:0.05 0.3)
          g ~hw ~traffic
      in
      check_within ~pct:3.
        (Printf.sprintf "throughput at %g load" load)
        model.Lognic.Latency.carried_rate m.summary.S.Telemetry.throughput)
    [ 0.5; 0.9; 1.2 ]

let netsim_matches_model_latency () =
  let g = pipeline () in
  List.iter
    (fun load ->
      let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
      let model = Lognic.Latency.evaluate g ~hw ~traffic in
      let m =
        S.Netsim.run_single
          ~config:S.Netsim.Config.(default |> with_horizon ~warmup:0.05 0.3)
          g ~hw ~traffic
      in
      check_within ~pct:6.
        (Printf.sprintf "latency at %g load" load)
        model.Lognic.Latency.mean m.summary.S.Telemetry.mean_latency)
    [ 0.5; 0.8; 0.95 ]

let netsim_multiengine_matches_mmcn () =
  (* a 4-engine IP: Eq 12 overestimates, Mmcn_model matches *)
  let g = G.empty in
  let svc t = G.service ~throughput:t () in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput:(4. *. U.gbps) ~parallelism:4 ~queue_capacity:32 ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~src:w ~dst:e g in
  let traffic = T.make ~rate:(3.4 *. U.gbps) ~packet_size:1500. in
  let m =
    S.Netsim.run_single
      ~config:S.Netsim.Config.(default |> with_horizon ~warmup:0.05 0.3)
      g ~hw ~traffic
  in
  let mmcn = Lognic.Latency.evaluate ~model:Lognic.Latency.Mmcn_model g ~hw ~traffic in
  let mm1n = Lognic.Latency.evaluate g ~hw ~traffic in
  check_within ~pct:8. "exact multi-server model tracks the simulator"
    mmcn.Lognic.Latency.mean m.summary.S.Telemetry.mean_latency;
  Alcotest.(check bool)
    "Eq 12 overestimates multi-engine queueing" true
    (mm1n.Lognic.Latency.mean > 1.5 *. m.summary.S.Telemetry.mean_latency)

let netsim_drops_under_overload () =
  let g = pipeline ~queue:4 () in
  let traffic = T.make ~rate:(8. *. U.gbps) ~packet_size:1500. in
  let m = S.Netsim.run_single g ~hw ~traffic in
  Alcotest.(check bool) "loss observed" true (m.summary.S.Telemetry.loss_rate > 0.2);
  let model = Lognic.Latency.evaluate g ~hw ~traffic in
  check_within ~pct:6. "goodput matches blocking model"
    model.Lognic.Latency.carried_rate m.summary.S.Telemetry.throughput

let netsim_fanout_routing () =
  (* 70/30 split: delivered per-class packet shares track the deltas *)
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, x = G.add_vertex ~kind:G.Ip ~label:"x" ~service:(svc (20. *. U.gbps)) g in
  let g, y = G.add_vertex ~kind:G.Ip ~label:"y" ~service:(svc (20. *. U.gbps)) g in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:0.7 ~src:i ~dst:x g in
  let g = G.add_edge ~delta:0.3 ~src:i ~dst:y g in
  let g = G.add_edge ~delta:0.7 ~src:x ~dst:e g in
  let g = G.add_edge ~delta:0.3 ~src:y ~dst:e g in
  let traffic = T.make ~rate:(5. *. U.gbps) ~packet_size:1500. in
  let m = S.Netsim.run_single g ~hw ~traffic in
  let stats_for label =
    List.find (fun (v : S.Netsim.vertex_stats) -> v.vlabel = label) m.vertex_stats
  in
  let cx = float_of_int (stats_for "x").completions in
  let cy = float_of_int (stats_for "y").completions in
  check_within ~pct:5. "70/30 routing" (7. /. 3.) (cx /. cy)

let netsim_mix_classes () =
  let g = pipeline ~ip_rate:(20. *. U.gbps) () in
  let mix =
    T.mix
      [
        (T.make ~rate:(1. *. U.gbps) ~packet_size:64., 1.);
        (T.make ~rate:(4. *. U.gbps) ~packet_size:1500., 1.);
      ]
  in
  let m = S.Netsim.execute (S.Netsim.Run.make g ~hw ~mix) in
  Alcotest.(check int) "two classes measured" 2
    (List.length m.summary.S.Telemetry.per_class);
  (* 64B class has ~5x the packet rate of the 1500B class:
     1G/64 ~ 1.95Mpps vs 4G/1500 ~ 0.33Mpps *)
  (match m.summary.S.Telemetry.per_class with
  | [ (0, n0, _); (1, n1, _) ] ->
    check_within ~pct:10. "class packet ratio" 5.86
      (float_of_int n0 /. float_of_int n1)
  | _ -> Alcotest.fail "per-class")

let netsim_utilization_matches_model () =
  (* the simulator's measured engine utilization must track the model's
     rho at sub-saturation loads *)
  let g = pipeline () in
  List.iter
    (fun load ->
      let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
      let m =
        S.Netsim.run_single
          ~config:S.Netsim.Config.(default |> with_horizon 0.2)
          g ~hw ~traffic
      in
      let ip_stats =
        List.find (fun (v : S.Netsim.vertex_stats) -> v.vlabel = "ip") m.vertex_stats
      in
      let model =
        List.find
          (fun (t : Lognic.Latency.vertex_terms) -> t.vid = ip_stats.vid)
          (Lognic.Latency.evaluate g ~hw ~traffic).per_vertex
      in
      check_within ~pct:4.
        (Printf.sprintf "utilization at load %g" load)
        model.Lognic.Latency.utilization ip_stats.utilization)
    [ 0.3; 0.6; 0.9 ]

let netsim_medium_sheds_load () =
  (* a graph whose interface is hugely oversubscribed: the medium's
     bounded buffer sheds load, goodput settles at the interface cap *)
  let tight_hw =
    Lognic.Params.hardware ~bw_interface:(1. *. U.gbps) ~bw_memory:(60. *. U.gbps)
  in
  let g = pipeline ~ip_rate:(20. *. U.gbps) () in
  let traffic = T.make ~rate:(5. *. U.gbps) ~packet_size:1500. in
  let m =
    S.Netsim.run_single
      ~config:S.Netsim.Config.(default |> with_horizon ~warmup:0.05 0.2)
      g ~hw:tight_hw ~traffic
  in
  (* two alpha=1 edges share the 1G interface. The analytic ceiling is
     0.5G; the simulator delivers ~0.25G because packets dropped at the
     second crossing already burned first-crossing bandwidth — wasted
     work under uncoordinated admission that the model's
     work-conserving Eq 2 cannot see. Both bounds are asserted. *)
  Alcotest.(check bool)
    "goodput between the wasted-work floor and the analytic ceiling" true
    (m.summary.S.Telemetry.throughput > 0.2 *. U.gbps
    && m.summary.S.Telemetry.throughput < 0.5 *. U.gbps);
  Alcotest.(check bool) "drops counted" true (m.summary.S.Telemetry.loss_rate > 0.5);
  (* bounded buffer keeps latency finite and modest *)
  Alcotest.(check bool)
    "latency bounded by the medium buffer" true
    (m.summary.S.Telemetry.max_latency < 0.05)

let netsim_replicated () =
  let g = pipeline () in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let spec =
    S.Netsim.Run.single
      ~config:S.Netsim.Config.(default |> with_horizon 0.05)
      g ~hw ~traffic
  in
  let r = S.Netsim.execute_replicated ~runs:4 spec in
  Alcotest.(check int) "runs" 4 r.S.Netsim.runs;
  check_within ~pct:3. "mean throughput near offered" (2. *. U.gbps)
    r.S.Netsim.throughput_mean;
  Alcotest.(check bool)
    "across-seed variance is small but nonzero" true
    (r.S.Netsim.latency_stddev > 0.
    && r.S.Netsim.latency_stddev < 0.2 *. r.S.Netsim.latency_mean);
  check_raises_invalid "needs >= 2 runs" (fun () ->
      ignore (S.Netsim.execute_replicated ~runs:1 spec))

(* One engine serves a plain, a faulted and a tenanted run in turn; each
   measurement is byte-equal to a fresh engine's. *)
let netsim_execute_with_reused_engine () =
  let g = pipeline () in
  let traffic = T.make ~rate:(3. *. U.gbps) ~packet_size:1500. in
  let config = S.Netsim.Config.(default |> with_horizon 0.02) in
  let plain = S.Netsim.Run.single ~config g ~hw ~traffic in
  let faulted =
    S.Netsim.Run.with_faults plain
      [
        S.Faults.engine_down ~vertex:"ip" ~engines:1 ~start:0.004 ~stop:0.01;
        S.Faults.drop_burst ~probability:0.3 ~start:0.002 ~stop:0.006;
      ]
  in
  let tenanted =
    S.Netsim.Run.with_config plain
      (S.Netsim.Config.with_tenants
         (S.Tenant.set [ S.Tenant.spec ~weight:3 "gold"; S.Tenant.spec "bronze" ])
         config)
  in
  let json m = S.Telemetry.Json.to_string (S.Netsim.measurement_to_json m) in
  let engine = S.Engine.create () in
  List.iter
    (fun (what, spec) ->
      Alcotest.(check string)
        (what ^ " run on a reused engine")
        (json (S.Netsim.execute spec))
        (json (S.Netsim.execute_with ~engine spec)))
    [ ("plain", plain); ("faulted", faulted); ("tenanted", tenanted) ]

let netsim_overload_observability () =
  (* Acceptance regression: under heavy overload every entity's
     utilization stays <= 1 (horizon clipping), loss_rate <= 1 (birth
     windowed drops), and the drop breakdown accounts for every drop. *)
  let g = pipeline ~queue:4 () in
  let traffic = T.make ~rate:(20. *. U.gbps) ~packet_size:1500. in
  let m = S.Netsim.run_single g ~hw ~traffic in
  let s = m.summary in
  Alcotest.(check bool) "overloaded" true (s.S.Telemetry.loss_rate > 0.5);
  Alcotest.(check bool) "loss rate <= 1" true (s.S.Telemetry.loss_rate <= 1.);
  List.iter
    (fun (v : S.Netsim.vertex_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %s utilization <= 1" v.vlabel)
        true
        (v.utilization >= 0. && v.utilization <= 1. +. 1e-9);
      Alcotest.(check int)
        (Printf.sprintf "node %s queue split sums" v.vlabel)
        v.drops
        (Array.fold_left ( + ) 0 v.queue_drops))
    m.vertex_stats;
  Alcotest.(check bool) "all media reported" true (List.length m.medium_stats >= 2);
  List.iter
    (fun (md : S.Netsim.medium_stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "medium %s utilization <= 1" md.mlabel)
        true
        (md.m_utilization >= 0. && md.m_utilization <= 1. +. 1e-9))
    m.medium_stats;
  Alcotest.(check int) "breakdown sums to total drops" s.S.Telemetry.dropped_packets
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.S.Telemetry.drop_breakdown);
  (* the bottleneck IP queue must appear as a drop site *)
  Alcotest.(check bool) "ip queue attributed" true
    (List.exists
       (fun (site, n) ->
         n > 0 && S.Telemetry.drop_site_name site = "node:ip/q0")
       s.S.Telemetry.drop_breakdown)

let netsim_latency_decomposition () =
  (* Per-hop latency contributions must sum to end-to-end latency. *)
  List.iter
    (fun load ->
      let g = pipeline () in
      let traffic = T.make ~rate:(load *. 4. *. U.gbps) ~packet_size:1500. in
      let m = S.Netsim.run_single g ~hw ~traffic in
      let s = m.summary in
      let terms = s.S.Telemetry.latency_terms in
      check_close ~tol:1e-9
        (Printf.sprintf "components sum to mean latency at load %g" load)
        s.S.Telemetry.mean_latency
        (S.Telemetry.terms_total terms);
      Alcotest.(check bool) "all components non-negative" true
        (terms.queueing >= 0. && terms.service >= 0. && terms.wire >= 0.
        && terms.overhead >= 0.);
      Alcotest.(check bool) "service and wire observed" true
        (terms.service > 0. && terms.wire > 0.))
    [ 0.5; 0.9 ]

let netsim_sampling () =
  let g = pipeline () in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let dt = 1e-3 in
  let config =
    S.Netsim.Config.(
      default |> with_metrics { S.Metrics.default_config with interval = dt })
  in
  let m = S.Netsim.run_single ~config g ~hw ~traffic in
  let series =
    match m.metrics with
    | Some metrics -> S.Metrics.series metrics
    | None -> Alcotest.fail "metrics attached but absent"
  in
  Alcotest.(check bool) "series present" true (List.length series > 0);
  (* per node: queue_depth + busy_engines; per medium: backlog_bytes *)
  Alcotest.(check int) "one series per probe"
    ((2 * List.length m.vertex_stats) + List.length m.medium_stats)
    (List.length series);
  let expected_samples =
    int_of_float (S.Netsim.Config.default.duration /. dt)
  in
  List.iter
    (fun series ->
      let samples = S.Telemetry.Series.to_array series in
      Alcotest.(check int)
        (Printf.sprintf "series %s respects the interval"
           (S.Telemetry.Series.label series))
        expected_samples (Array.length samples);
      Array.iteri
        (fun i (t, _) ->
          check_close
            (Printf.sprintf "sample %d time" i)
            (float_of_int (i + 1) *. dt)
            t)
        samples)
    series;
  (* sampling is read-only: results identical with and without *)
  let plain = S.Netsim.run_single g ~hw ~traffic in
  check_close "sampling does not perturb the simulation"
    plain.summary.S.Telemetry.mean_latency m.summary.S.Telemetry.mean_latency;
  (* measurement JSON parses back *)
  let str = S.Telemetry.Json.to_string (S.Netsim.measurement_to_json m) in
  (match S.Telemetry.Json.of_string str with
  | Ok (S.Telemetry.Json.Obj _) -> ()
  | Ok _ -> Alcotest.fail "measurement JSON is not an object"
  | Error e -> Alcotest.failf "measurement JSON does not parse: %s" e)

let netsim_replicated_entities () =
  let g = pipeline () in
  let traffic = T.make ~rate:(2. *. U.gbps) ~packet_size:1500. in
  let r =
    S.Netsim.execute_replicated ~runs:3
      (S.Netsim.Run.single
         ~config:S.Netsim.Config.(default |> with_horizon 0.05)
         g ~hw ~traffic)
  in
  Alcotest.(check bool) "per-entity stats present" true
    (List.length r.S.Netsim.entities >= 5);
  let ip =
    List.find
      (fun (e : S.Netsim.entity_replicated) -> e.entity = "ip")
      r.S.Netsim.entities
  in
  Alcotest.(check bool) "ip utilization sensible" true
    (ip.utilization_mean > 0. && ip.utilization_mean <= 1.)

let netsim_rejects_invalid_graph () =
  let g = G.empty in
  let g, _ = G.add_vertex ~kind:G.Ip ~label:"x" ~service:G.default_service g in
  check_raises_invalid "invalid graph" (fun () ->
      S.Netsim.run_single g ~hw ~traffic:(T.make ~rate:1e9 ~packet_size:1500.))

let properties =
  [
    prop "event queue pops in sorted order, FIFO on ties"
      (* Small integer times force many ties, exercising the seq
         tiebreak; indexed payloads make the expected order exact. *)
      QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 10))
      (fun times ->
        let q = Q.create () in
        let entries = List.mapi (fun i t -> (float_of_int t, i)) times in
        List.iter (fun (t, i) -> Q.push q ~time:t i) entries;
        let rec drain acc =
          match pop q with
          | None -> List.rev acc
          | Some entry -> drain (entry :: acc)
        in
        let expected =
          (* stable sort by time = time order with push order on ties *)
          List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) entries
        in
        drain [] = expected);
    prop "sim throughput never exceeds offered load"
      QCheck.(pair (float_range 0.2 3.) small_int)
      (fun (load, seed) ->
        let g = pipeline () in
        let rate = load *. 4. *. U.gbps in
        let traffic = T.make ~rate ~packet_size:1500. in
        let m =
          S.Netsim.run_single
            ~config:
              S.Netsim.Config.(default |> with_horizon 0.02 |> with_seed seed)
            g ~hw ~traffic
        in
        m.summary.S.Telemetry.throughput <= rate *. 1.1);
  ]

let suite =
  [
    quick "event queue: time order" event_queue_orders_by_time;
    quick "event queue: FIFO ties" event_queue_fifo_on_ties;
    quick "event queue: interleaved growth" event_queue_interleaved;
    quick "event queue: rejects NaN" event_queue_rejects_nan;
    quick "event queue: locate within a horizon" event_queue_locate_horizon;
    quick "event queue: taken payload is released" event_queue_releases_taken;
    quick "event queue: take needs a fresh locate" event_queue_take_needs_locate;
    quick "event queue: size skips the empty root" event_queue_size_skips_empty_root;
    quick "event queue: sorted across doublings and reuse"
      event_queue_sorted_across_doublings;
    QCheck_alcotest.to_alcotest
      (Lognic_check.Props.event_queue_matches_oracle ~count:500);
    quick "engine: causal order" engine_runs_in_order;
    quick "engine: observer reads the advanced clock" engine_observer_reads_clock;
    quick "engine: horizon" engine_horizon;
    quick "engine: rejects past events" engine_rejects_past;
    quick "medium: FIFO serialization" medium_serializes;
    quick "medium: zero-byte passthrough" medium_zero_bytes_passthrough;
    quick "medium: bounded buffer" medium_buffer_rejects;
    quick "ip node: sequential service" ip_node_serves_fifo;
    quick "ip node: parallel engines" ip_node_parallel_engines;
    quick "ip node: drops when full" ip_node_drops_when_full;
    quick "ip node: zero-work passthrough" ip_node_zero_work_passthrough;
    quick "ip node: zero-work FIFO under load" ip_node_zero_work_fifo;
    quick "ip node: overload utilization <= 1" ip_node_overload_utilization;
    quick "ip node: a trace lane is the completion slot" ip_node_lanes_are_slots;
    quick "medium: overload utilization <= 1" medium_overload_utilization;
    slow "ip node: M/M/1/N blocking" ip_node_matches_mm1n;
    quick "telemetry: warmup windows" telemetry_windows;
    quick "telemetry: drop attribution" telemetry_drop_attribution;
    quick "telemetry: latency decomposition" telemetry_latency_terms;
    quick "telemetry: per-class" telemetry_per_class;
    quick "telemetry: attribution table" telemetry_table;
    quick "telemetry: series ring buffer" series_ring_overwrites;
    quick "telemetry: series CSV" series_csv;
    quick "telemetry: summary JSON round-trip" summary_json_roundtrip;
    quick "netsim: conservation" netsim_conservation;
    quick "netsim: deterministic" netsim_deterministic;
    quick "netsim: seed sensitivity" netsim_seed_matters;
    slow "netsim: throughput matches model" netsim_matches_model_throughput;
    slow "netsim: latency matches model" netsim_matches_model_latency;
    slow "netsim: multi-engine needs Mmcn" netsim_multiengine_matches_mmcn;
    quick "netsim: overload goodput" netsim_drops_under_overload;
    quick "netsim: fan-out routing" netsim_fanout_routing;
    quick "netsim: traffic mixes" netsim_mix_classes;
    slow "netsim: utilization matches model" netsim_utilization_matches_model;
    quick "netsim: oversubscribed medium sheds load" netsim_medium_sheds_load;
    quick "netsim: overload observability" netsim_overload_observability;
    quick "netsim: latency decomposition" netsim_latency_decomposition;
    quick "netsim: sampled series" netsim_sampling;
    quick "netsim: execute_with on a reused engine" netsim_execute_with_reused_engine;
    quick "netsim: replicated runs" netsim_replicated;
    quick "netsim: replicated per-entity stats" netsim_replicated_entities;
    quick "netsim: rejects invalid graphs" netsim_rejects_invalid_graph;
  ]
  @ properties
  @ [ json_roundtrip_prop ]
