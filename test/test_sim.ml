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

let event_queue_orders_by_time () =
  let q = S.Event_queue.create () in
  List.iter (fun (t, v) -> S.Event_queue.push q ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  Alcotest.(check int) "size" 3 (S.Event_queue.size q);
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (S.Event_queue.peek_time q);
  let order = List.init 3 (fun _ -> snd (Option.get (S.Event_queue.pop q))) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "drained" true (S.Event_queue.is_empty q)

let event_queue_fifo_on_ties () =
  let q = S.Event_queue.create () in
  List.iter (fun v -> S.Event_queue.push q ~time:5. v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Option.get (S.Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order on equal times" [ 1; 2; 3; 4 ] order

let event_queue_interleaved () =
  let q = S.Event_queue.create () in
  (* push/pop interleaving across growth boundaries *)
  for i = 0 to 99 do
    S.Event_queue.push q ~time:(float_of_int (100 - i)) i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match S.Event_queue.pop q with
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
  let q = S.Event_queue.create () in
  check_raises_invalid "nan time" (fun () -> S.Event_queue.push q ~time:Float.nan ())

let event_queue_pop_if_before () =
  let q = S.Event_queue.create () in
  List.iter (fun (t, v) -> S.Event_queue.push q ~time:t v) [ (1., "a"); (5., "b") ];
  Alcotest.(check (option (pair (float 0.) string)))
    "pops events within the horizon" (Some (1., "a"))
    (S.Event_queue.pop_if_before q ~horizon:3.);
  Alcotest.(check (option (pair (float 0.) string)))
    "leaves events past the horizon" None
    (S.Event_queue.pop_if_before q ~horizon:3.);
  Alcotest.(check int) "later event still queued" 1 (S.Event_queue.size q);
  Alcotest.(check (option (pair (float 0.) string)))
    "inclusive at the horizon" (Some (5., "b"))
    (S.Event_queue.pop_if_before q ~horizon:5.);
  Alcotest.(check (option (pair (float 0.) string)))
    "empty queue" None
    (S.Event_queue.pop_if_before q ~horizon:infinity)

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

let engine_horizon () =
  let e = S.Engine.create () in
  let fired = ref false in
  S.Engine.schedule e ~at:10. (fun () -> fired := true);
  S.Engine.run ~until:5. e;
  Alcotest.(check bool) "future event not fired" false !fired;
  check_close "clock clamped to horizon" 5. (S.Engine.now e);
  Alcotest.(check int) "event still pending" 1 (S.Engine.pending e)

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
  check_close "busy time" 1. (S.Medium.busy_time m);
  check_close "utilization" 1. (S.Medium.utilization m ~until:1.)

let medium_zero_bytes_passthrough () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. () in
  let fired = ref false in
  ignore (S.Medium.transfer m ~bytes:0. (fun () -> fired := true));
  Alcotest.(check bool) "immediate" true !fired;
  check_close "no busy time" 0. (S.Medium.busy_time m)

let medium_buffer_rejects () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. ~buffer:100. () in
  Alcotest.(check bool) "first accepted" true (S.Medium.transfer m ~bytes:80. ignore);
  Alcotest.(check bool) "overflow rejected" false (S.Medium.transfer m ~bytes:80. ignore);
  Alcotest.(check int) "rejection counted" 1 (S.Medium.rejections m);
  (* after draining there is room again *)
  S.Engine.run e;
  Alcotest.(check bool) "accepted after drain" true (S.Medium.transfer m ~bytes:80. ignore)

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
    ignore (S.Ip_node.submit n ~work:100. (fun () -> completions := (i, S.Engine.now e) :: !completions))
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
    ignore (S.Ip_node.submit n ~work:100. (fun () -> finished := S.Engine.now e :: !finished))
  done;
  S.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "both served concurrently" [ 1.; 1. ] !finished

let ip_node_drops_when_full () =
  let e = S.Engine.create () in
  let n = node ~capacity:2 e in
  Alcotest.(check bool) "1 in service" true (S.Ip_node.submit n ~work:100. ignore);
  Alcotest.(check bool) "1 queued" true (S.Ip_node.submit n ~work:100. ignore);
  Alcotest.(check bool) "3rd rejected" false (S.Ip_node.submit n ~work:100. ignore);
  Alcotest.(check int) "drop counted" 1 (S.Ip_node.drops n);
  Alcotest.(check int) "in system" 2 (S.Ip_node.in_system n)

let ip_node_zero_work_passthrough () =
  let e = S.Engine.create () in
  let n = node e in
  let fired = ref false in
  ignore (S.Ip_node.submit n ~work:0. (fun () -> fired := true));
  Alcotest.(check bool) "immediate" true !fired

let ip_node_zero_work_fifo () =
  (* The reordering bugfix: a zero-work request submitted while earlier
     work is queued must complete after it, not bypass the queue. *)
  let e = S.Engine.create () in
  let n = node e in
  let order = ref [] in
  ignore (S.Ip_node.submit n ~work:100. (fun () -> order := `Work1 :: !order));
  ignore (S.Ip_node.submit n ~work:100. (fun () -> order := `Work2 :: !order));
  ignore (S.Ip_node.submit n ~work:0. (fun () -> order := `Zero :: !order));
  S.Engine.run e;
  Alcotest.(check bool) "FIFO preserved" true
    (List.rev !order = [ `Work1; `Work2; `Zero ]);
  (* queued zero-work is subject to capacity like any request *)
  let n2 = node ~capacity:2 e in
  ignore (S.Ip_node.submit n2 ~work:100. ignore);
  ignore (S.Ip_node.submit n2 ~work:100. ignore);
  Alcotest.(check bool) "queued zero-work can drop" false
    (S.Ip_node.submit n2 ~work:0. ignore)

let ip_node_overload_utilization () =
  (* Busy-time clipping: a service in flight at the horizon must only
     contribute its pre-horizon share, so utilization stays <= 1. *)
  let e = S.Engine.create () in
  let n = node ~capacity:16 e in
  (* 10 x 1s services, horizon 2.5s: without clipping busy = 3s *)
  for _ = 1 to 10 do
    ignore (S.Ip_node.submit n ~work:100. ignore)
  done;
  S.Engine.run ~until:2.5 e;
  check_close "clipped busy" 2.5 (S.Ip_node.busy_within n ~until:2.5);
  check_close "utilization capped" 1. (S.Ip_node.utilization n ~until:2.5);
  Alcotest.(check bool) "never above 1" true
    (S.Ip_node.utilization n ~until:2.5 <= 1.)

let medium_overload_utilization () =
  let e = S.Engine.create () in
  let m = S.Medium.create e ~label:"bus" ~bandwidth:100. () in
  (* 3 x 1s transfers, horizon 2.5s: raw busy 3s, clipped 2.5s *)
  for _ = 1 to 3 do
    ignore (S.Medium.transfer m ~bytes:100. ignore)
  done;
  S.Engine.run ~until:2.5 e;
  check_close "raw busy keeps the full accrual" 3. (S.Medium.busy_time m);
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
      ignore (S.Ip_node.submit n ~work:100. ignore);
      let gap = N.Dist.sample (N.Dist.exponential ~rate:lambda) rng in
      S.Engine.schedule e ~at:(now +. gap) arrival
    end
  in
  S.Engine.schedule e ~at:0.001 arrival;
  S.Engine.run ~until:horizon e;
  let measured_drop = float_of_int (S.Ip_node.drops n) /. float_of_int !offered in
  let predicted =
    Lognic_queueing.Mm1n.blocking_probability
      (Lognic_queueing.Mm1n.create ~lambda ~mu ~capacity:4)
  in
  check_within ~pct:5. "blocking matches closed form" predicted measured_drop

(* Telemetry *)

let site_ip0 = S.Telemetry.Node_queue { node = "ip"; queue = 0 }

(* A flight's scratch array as the simulator fills it by egress. *)
let flight ?(terms = S.Telemetry.zero_terms) ?now ~born ~size () =
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
  S.Telemetry.record_drop_counted t ~born (S.Telemetry.drop_counter t site)

let telemetry_windows () =
  let t = S.Telemetry.create ~warmup:10. in
  (* before warmup: ignored *)
  S.Telemetry.record_arrival t ~now:5. ~size:100.;
  complete t ~now:8. ~born:5. ~size:100. ~klass:0 ();
  (* after warmup *)
  S.Telemetry.record_arrival t ~now:11. ~size:100.;
  complete t ~now:12. ~born:11. ~size:100. ~klass:0 ();
  S.Telemetry.record_arrival t ~now:13. ~size:100.;
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
  let t = S.Telemetry.create ~warmup:10. in
  S.Telemetry.record_arrival t ~now:9. ~size:100.;  (* not offered *)
  drop t ~born:9. site_ip0;  (* not counted *)
  S.Telemetry.record_arrival t ~now:11. ~size:100.;
  drop t ~born:11. site_ip0;
  let s = S.Telemetry.summarize t ~horizon:20. in
  Alcotest.(check int) "pre-warmup birth excluded" 1 s.dropped_packets;
  Alcotest.(check bool) "loss rate consistent" true (s.loss_rate <= 1.);
  check_close "loss rate" 1. s.loss_rate;
  (* site attribution: the breakdown totals the aggregate counter *)
  let medium = S.Telemetry.Medium_buffer "interface" in
  S.Telemetry.record_arrival t ~now:14. ~size:100.;
  drop t ~born:14. medium;
  S.Telemetry.record_arrival t ~now:15. ~size:100.;
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
  let t = S.Telemetry.create ~warmup:0. in
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
  let t = S.Telemetry.create ~warmup:0. in
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
     upper bound of the other 99's bucket: 2^-19 for 2^-20 s latencies
     (bucket 20), 2^-39 for zero latencies (bucket 0) *)
  let one_slow row fast =
    for i = 1 to 100 do
      let now = if i = 100 then 1. else fast in
      Tb.record_delivered h ~row (flight ~born:0. ~now ~size:1. ())
    done
  in
  one_slow 1 lat;
  exact "p99 is the bucket's upper bound" (2. *. lat) (Tb.p99 h 1);
  one_slow 2 0.;
  exact "zero latency lands in bucket 0" (Float.ldexp 1. (-39)) (Tb.p99 h 2);
  check_fields "empty row reports 0" (((0, 0, 0), (0., 0.)), ((0., 0., 0.), 0.)) h 3

(* Series ring buffers *)

let series_ring_overwrites () =
  let s =
    S.Telemetry.Series.create ~capacity:4 ~label:"depth" ~interval:1. ()
  in
  for i = 1 to 6 do
    S.Telemetry.Series.add s ~time:(float_of_int i) ~value:(float_of_int (10 * i))
  done;
  Alcotest.(check int) "bounded length" 4 (S.Telemetry.Series.length s);
  Alcotest.(check (array (pair (float 0.) (float 0.))))
    "newest samples win, chronological"
    [| (3., 30.); (4., 40.); (5., 50.); (6., 60.) |]
    (S.Telemetry.Series.to_array s);
  Alcotest.(check string) "label" "depth" (S.Telemetry.Series.label s);
  check_close "interval" 1. (S.Telemetry.Series.interval s);
  check_raises_invalid "bad capacity" (fun () ->
      S.Telemetry.Series.create ~capacity:0 ~label:"x" ~interval:1. ());
  check_raises_invalid "bad interval" (fun () ->
      S.Telemetry.Series.create ~label:"x" ~interval:0. ())

let series_csv () =
  let s = S.Telemetry.Series.create ~capacity:8 ~label:"q" ~interval:0.5 () in
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
  let t = S.Telemetry.create ~warmup:0. in
  S.Telemetry.record_arrival t ~now:1. ~size:100.;
  complete t ~now:2. ~born:1.
    ~terms:{ S.Telemetry.queueing = 0.5; service = 0.3; wire = 0.2; overhead = 0. }
    ~size:100. ~klass:0 ();
  S.Telemetry.record_arrival t ~now:3. ~size:100.;
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

let hw = Lognic.Params.hardware ~bw_interface:(50. *. U.gbps) ~bw_memory:(60. *. U.gbps)

let pipeline ?(queue = 32) ?(ip_rate = 4. *. U.gbps) () =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"in" ~service:(svc (25. *. U.gbps)) g in
  let g, w =
    G.add_vertex ~kind:G.Ip ~label:"ip"
      ~service:(G.service ~throughput:ip_rate ~queue_capacity:queue ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"out" ~service:(svc (25. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:i ~dst:w g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:w ~dst:e g in
  g

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
  let m = S.Netsim.run g ~hw ~mix in
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
    (List.fold_left (fun acc (_, n) -> acc + n) 0 m.drop_breakdown);
  (* the bottleneck IP queue must appear as a drop site *)
  Alcotest.(check bool) "ip queue attributed" true
    (List.exists
       (fun (site, n) ->
         n > 0 && S.Telemetry.drop_site_name site = "node:ip/q0")
       m.drop_breakdown)

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
  let config = S.Netsim.Config.(default |> with_sampling dt) in
  let m = S.Netsim.run_single ~config g ~hw ~traffic in
  Alcotest.(check bool) "series present" true (List.length m.series > 0);
  (* per node: depth + busy; per medium: backlog *)
  Alcotest.(check int) "one series per probe"
    ((2 * List.length m.vertex_stats) + List.length m.medium_stats)
    (List.length m.series);
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
    m.series;
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
        let q = S.Event_queue.create () in
        let entries = List.mapi (fun i t -> (float_of_int t, i)) times in
        List.iter (fun (t, i) -> S.Event_queue.push q ~time:t i) entries;
        let rec drain acc =
          match S.Event_queue.pop q with
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
    quick "engine: causal order" engine_runs_in_order;
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
    quick "netsim: replicated runs" netsim_replicated;
    quick "netsim: replicated per-entity stats" netsim_replicated_entities;
    quick "netsim: rejects invalid graphs" netsim_rejects_invalid_graph;
  ]
  @ properties
  @ [ json_roundtrip_prop ]
