(* Tests for the §5.3 programmable-switch generalization: the RMT
   switch device model and the in-network KV cache case study. *)

open Helpers
module G = Lognic.Graph
module U = Lognic.Units
module Sw = Lognic_devices.Rmt_switch
open Lognic_apps

let forwarding_valid () =
  List.iter
    (fun recirculate ->
      let g = Sw.forwarding_graph ~recirculate ~packet_size:U.mtu () in
      Alcotest.(check bool)
        (Printf.sprintf "valid at recirculation %g" recirculate)
        true
        (Result.is_ok (G.validate g)))
    [ 0.; 0.1; 0.5 ];
  check_raises_invalid "recirculate = 1 rejected" (fun () ->
      Sw.forwarding_graph ~recirculate:1. ~packet_size:U.mtu ())

let forwarding_line_rate_at_mtu () =
  (* MTU forwarding is line-rate bound, not pipeline bound *)
  let g = Sw.forwarding_graph ~packet_size:U.mtu () in
  check_close "line rate" Sw.line_rate (Lognic.Throughput.capacity g ~hw:Sw.hardware)

let forwarding_pps_bound_at_64b () =
  (* 3.2T at 64B would be 6.25 Gpps; the 1.2 Gpps pipeline binds *)
  let g = Sw.forwarding_graph ~packet_size:64. () in
  check_close "pipeline pps bound" (1.2e9 *. 64.)
    (Lognic.Throughput.capacity g ~hw:Sw.hardware)

let recirculation_costs_capacity () =
  let cap r =
    Lognic.Throughput.capacity
      (Sw.forwarding_graph ~recirculate:r ~packet_size:64. ())
      ~hw:Sw.hardware
  in
  (* recirculated packets consume extra pipeline slots: capacity falls
     by the 1/(1+r) share *)
  check_within ~pct:1. "20% recirculation costs 1/1.2" (cap 0. /. 1.2) (cap 0.2);
  Alcotest.(check bool) "monotone" true (cap 0.4 < cap 0.2 && cap 0.2 < cap 0.)

let pipeline_latency_is_depth () =
  (* at low load, switch transit time ~ pipeline depth + serialization *)
  let g = Sw.forwarding_graph ~packet_size:U.mtu () in
  let traffic = Lognic.Traffic.make ~rate:(10. *. U.gbps) ~packet_size:U.mtu in
  let r = Lognic.Latency.evaluate g ~hw:Sw.hardware ~traffic in
  (* a 400 ns pipeline and 400 GB/s of register SRAM *)
  check_within ~pct:15. "transit ~ pipeline depth"
    (400e-9
    +. (2. *. (U.mtu /. Sw.line_rate))
    +. (32. /. 400e9))
    r.Lognic.Latency.mean

let register_traffic_can_bind () =
  (* huge per-packet register footprints push the bottleneck onto the
     memory medium *)
  let g =
    Sw.forwarding_graph ~register_bytes_per_packet:4096. ~packet_size:64. ()
  in
  let traffic = Lognic.Traffic.make ~rate:Sw.line_rate ~packet_size:64. in
  let r = Lognic.Throughput.evaluate g ~hw:Sw.hardware ~traffic in
  Alcotest.(check bool)
    "memory bound" true
    (r.Lognic.Throughput.bottleneck = Lognic.Throughput.Memory_bound)

(* NetCache *)

let netcache_hyperbolic_law () =
  (* sustainable rate = server_rate / (1 - h) while the server binds *)
  let c = Netcache.default in
  List.iter
    (fun h ->
      check_within ~pct:1.
        (Printf.sprintf "1/(1-h) law at %g" h)
        (1. /. (1. -. h))
        (Netcache.speedup_at ~hit_ratio:h c))
    [ 0.25; 0.5; 0.75; 0.9 ]

let netcache_sweep_shape () =
  let points = Netcache.hit_ratio_sweep ~duration:0.01 Netcache.default in
  let rps = List.map (fun (p : Netcache.point) -> p.model_rps) points in
  Alcotest.(check (list (float 1.))) "throughput monotone in hit ratio"
    (List.sort compare rps) rps;
  let lat = List.map (fun (p : Netcache.point) -> p.model_latency) points in
  Alcotest.(check (list (float 1e-12)))
    "latency falls with hit ratio"
    (List.rev (List.sort compare lat))
    lat;
  (* simulator confirms the model within 15% everywhere *)
  List.iter
    (fun (p : Netcache.point) ->
      check_within ~pct:15.
        (Printf.sprintf "sim agreement at h=%g" p.hit_ratio)
        p.model_rps p.measured_rps)
    points

(* [speedup_at] evaluates the graph at the hit ratio, and the model
   validates the graph first. *)
let netcache_graph_validity () =
  List.iter
    (fun h ->
      let speedup = Netcache.speedup_at ~hit_ratio:h Netcache.default in
      Alcotest.(check bool)
        (Printf.sprintf "valid at h=%g" h)
        true
        (Float.is_finite speedup && speedup > 0.))
    [ 0.; 0.5; 1. ];
  check_raises_invalid "bad hit ratio" (fun () ->
      Netcache.speedup_at ~hit_ratio:1.5 Netcache.default)

let suite =
  [
    quick "switch: forwarding graphs valid" forwarding_valid;
    quick "switch: line rate at MTU" forwarding_line_rate_at_mtu;
    quick "switch: pps bound at 64B" forwarding_pps_bound_at_64b;
    quick "switch: recirculation cost" recirculation_costs_capacity;
    quick "switch: pipeline-depth latency" pipeline_latency_is_depth;
    quick "switch: register traffic binds" register_traffic_can_bind;
    quick "netcache: hyperbolic law" netcache_hyperbolic_law;
    slow "netcache: sweep shape + sim" netcache_sweep_shape;
    quick "netcache: graph validity" netcache_graph_validity;
  ]
