(** Estimation-mode façade (§3.8, Figure 4-a): one call that runs both
    model threads — throughput and latency — for an offloaded program
    under a traffic profile. *)

type report = {
  throughput : Throughput.result;
  latency : Latency.result;
  traffic : Traffic.t;
}

val run :
  ?queue_model:Latency.queue_model ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  report

val goodput : report -> float
(** The model's goodput: Eq 1's attainable rate further discounted by
    finite-queue blocking ({!Latency.result.carried_rate}), so a
    configuration cannot carry traffic its queues drop. *)

val run_mix :
  ?queue_model:Latency.queue_model ->
  ?contention:Extensions.contention ->
  Graph.t ->
  hw:Params.hardware ->
  mix:Traffic.mix ->
  Extensions.mixed_report
(** Joint multi-class evaluation ({!Extensions.mixed_traffic}) with a
    size-independent graph; [?contention] adds the multi-resource
    interference layer. *)


val saturation_sweep :
  ?points:int ->
  ?queue_model:Latency.queue_model ->
  Graph.t ->
  hw:Params.hardware ->
  packet_size:float ->
  max_rate:float ->
  (float * float * float) list
(** [(offered rate, attained rate, mean latency)] at [points]
    (default 20) offered loads from [max_rate/points] to [max_rate] —
    the latency-vs-throughput curves of Fig 6. Raises
    [Invalid_argument] when [points < 1], or as {!Traffic.make} on a
    non-positive or non-finite [max_rate]. *)

val pp_report : Graph.t -> Format.formatter -> report -> unit
