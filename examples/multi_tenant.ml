(* Multi-tenancy from both ends of the stack.

   Part 1 — Extension #1 (paper §3.7): consolidating multiple tenants'
   execution graphs on one SmartNIC. Two tenants — an NVMe-oF storage
   target and an inline-crypto network service — share the device's
   interconnect and memory; the consolidated model shows how one
   tenant's medium pressure erodes the other's ceiling.

   Part 2 — SR-IOV virtualization of ONE graph: a driven simulation
   where 8 virtual functions share the md5 inline-acceleration path
   behind the two-stage WRR arbiter ([Lognic_sim.Tenant]), joined
   against the weighted multi-class M/M/c/N decomposition, with
   fairness/isolation indices. A second run turns one background VF
   into a noisy neighbor and shows what the indices catch.

   Run with: dune exec examples/multi_tenant.exe *)

module G = Lognic.Graph
module U = Lognic.Units
module E = Lognic.Extensions
module Sim = Lognic_sim
module D = Lognic_devices
module T = Sim.Tenant

let hw =
  Lognic.Params.hardware ~bw_interface:(60. *. U.gbps) ~bw_memory:(50. *. U.gbps)

(* Tenant A: packet crypto, interface-heavy (delta = alpha = 1 on both
   hops). *)
let crypto_graph =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:(svc (100. *. U.gbps)) g in
  let g, c =
    G.add_vertex ~kind:G.Ip ~label:"crypto"
      ~service:(G.service ~throughput:(30. *. U.gbps) ~queue_capacity:64 ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"tx" ~service:(svc (100. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:i ~dst:c g in
  let g = G.add_edge ~delta:1. ~alpha:1. ~src:c ~dst:e g in
  g

(* Tenant B: storage writes, memory-heavy (data staged through DRAM). *)
let storage_graph =
  let svc t = G.service ~throughput:t () in
  let g = G.empty in
  let g, i = G.add_vertex ~kind:G.Ingress ~label:"rx" ~service:(svc (100. *. U.gbps)) g in
  let g, s =
    G.add_vertex ~kind:G.Ip ~label:"staging"
      ~service:(G.service ~throughput:(25. *. U.gbps) ~queue_capacity:64 ())
      g
  in
  let g, e = G.add_vertex ~kind:G.Egress ~label:"ssd" ~service:(svc (100. *. U.gbps)) g in
  let g = G.add_edge ~delta:1. ~alpha:0.5 ~beta:1. ~src:i ~dst:s g in
  let g = G.add_edge ~delta:1. ~beta:1. ~src:s ~dst:e g in
  g

let tenant name graph gbps =
  {
    E.name;
    graph;
    traffic = Lognic.Traffic.make ~rate:(gbps *. U.gbps) ~packet_size:U.mtu;
  }

let show title tenants =
  let c = E.consolidate ~hw tenants in
  Fmt.pr "@.%s@." title;
  List.iter
    (fun (r : E.tenant_report) ->
      Fmt.pr "  %-8s attained %.2f Gbps, mean latency %.2f us@." r.tenant
        (U.to_gbps r.throughput.Lognic.Throughput.attained)
        (U.to_usec r.latency.Lognic.Latency.mean))
    c.tenants;
  Fmt.pr "  total %.2f Gbps; interface util %.2f, memory util %.2f@."
    (U.to_gbps c.total_attained) c.interface_utilization c.memory_utilization

(* ---- Part 2: SR-IOV virtualization of one graph ---------------------- *)

let vf_population ~noisy =
  T.set
    (T.spec ~weight:8 ~share:4. ~slo_p99:1e-3 "gold"
    :: T.spec ~weight:4 ~share:2. ~slo_p99:5e-3 "silver"
    :: List.init 6 (fun i ->
           let share = if noisy && i = 0 then 24. else 1. in
           T.spec ~share (Printf.sprintf "vf%d" i)))

let run_vfs title ~noisy =
  let graph =
    D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5 ~packet_size:U.mtu ()
  in
  let config =
    Sim.Netsim.Config.(
      default |> with_seed 42 |> with_horizon ~warmup:1e-3 1e-2)
  in
  let report =
    Sim.Explain.run_tenants ~config graph ~hw:D.Liquidio.hardware
      ~traffic:
        (Lognic.Traffic.make
           ~rate:(0.8 *. D.Liquidio.line_rate)
           ~packet_size:U.mtu)
      ~tenants:(vf_population ~noisy)
  in
  Fmt.pr "@.%s@." title;
  List.iter
    (fun (r : Sim.Explain.tenant_row) ->
      Fmt.pr "  %-7s w=%d share=%.3f  sim %.2f Gbps (model %.2f)%s@."
        r.Sim.Explain.tn_name r.Sim.Explain.tn_weight r.Sim.Explain.tn_share
        (U.to_gbps (Option.get r.Sim.Explain.tn_throughput.sim))
        (U.to_gbps r.Sim.Explain.tn_throughput.model)
        (match r.Sim.Explain.tn_slo_ok with
        | Some true -> "  [SLO ok]"
        | Some false -> "  [SLO MISS]"
        | None -> ""))
    report.Sim.Explain.tr_rows;
  let f = report.Sim.Explain.tr_stats.T.t_fairness in
  Fmt.pr
    "  fairness: max-min %.3f, Jain %.3f, interference (worst/best \
     latency) %.2f@."
    f.T.maxmin_ratio f.T.jain f.T.interference

let () =
  Fmt.pr "Multi-tenant consolidation (Extension #1)@.";
  show "crypto alone (20 Gbps offered):" [ tenant "crypto" crypto_graph 20. ];
  show "storage alone (20 Gbps offered):" [ tenant "storage" storage_graph 20. ];
  show "consolidated (20 + 20 Gbps offered):"
    [ tenant "crypto" crypto_graph 20.; tenant "storage" storage_graph 20. ];
  show "consolidated, storage surge (20 + 35 Gbps offered):"
    [ tenant "crypto" crypto_graph 20.; tenant "storage" storage_graph 35. ];
  Fmt.pr
    "@.The crypto tenant's ceiling falls as the storage tenant's memory \
     staging spills onto the shared interface — the contention Extension #1 \
     exists to expose.@.";
  Fmt.pr "@.SR-IOV virtualization: 8 VFs behind the two-stage WRR arbiter@.";
  run_vfs "balanced population (gold/silver differentiated, 6 background VFs):"
    ~noisy:false;
  run_vfs "noisy neighbor (vf0 offers 24x its fair share):" ~noisy:true;
  Fmt.pr
    "@.The arbiter's weighted grants keep gold's SLO intact while the \
     noisy VF saturates its own queues — the max-min and interference \
     indices quantify the isolation the virtualization layer buys.@."
