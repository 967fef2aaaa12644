(** Degraded-mode analytic evaluation: what the LogNIC model predicts
    when hardware entities {e partially fail}.

    The throughput/latency threads (§3.5–3.6) assume every entity runs
    at its nameplate capability. Real SmartNIC deployments spend a
    surprising share of their life outside that regime — accelerator
    engines stall, links flap, queues are shrunk by firmware, ingress
    sheds bursts — and the characterization literature shows those
    intervals dominate tail behavior. This module re-evaluates the model
    under a piecewise-constant degradation profile:

    - D′: engines offline on a vertex scale its aggregate throughput by
      (D − down)/D and its parallelism to D − down (the per-engine rate
      is unchanged);
    - B′: a medium factor f ∈ (0, 1] scales the interface, memory, or a
      dedicated link bandwidth to f·B;
    - N′: a queue override caps a vertex's queue capacity at
      min(N, override);
    - an ingress drop probability p discounts the offered load to
      (1 − p)·BW_in before it reaches the device.

    Each interval is evaluated with the unmodified machinery
    ({!Throughput.evaluate} / {!Latency.evaluate}) on the modified graph
    and hardware, then composed into time-weighted throughput, a
    delivery-weighted latency, and an availability figure against an
    SLO. The interval decomposition itself typically comes from
    [Lognic_sim.Faults.modifiers], which lowers a simulator fault plan
    into this module's representation. *)

type fault =
  | Engine_down of { vertex : string; engines : int }
      (** [engines] of the vertex's D engines are down; ≥ D means the
          vertex is fully failed *)
  | Medium_degraded of { medium : string; factor : float }
      (** the medium named [medium] ({!Params.medium_name}) runs at
          [factor · bandwidth], factor ∈ (0, 1] *)
  | Queue_shrunk of { vertex : string; capacity : int }
      (** the vertex's queue capacity is capped at [min capacity N] *)
  | Drop_burst of { probability : float }
      (** each offered packet is shed at ingress with this
          probability *)
(** One fault on one target; [Lognic_sim.Faults] schedules them in
    time and realizes them in the simulator. *)

type modifier = {
  engines_down : (string * int) list;
      (** vertex label → engines offline (≥ D means the vertex is fully
          failed) *)
  media_factors : (string * float) list;
      (** medium name ({!Params.medium_name}) → bandwidth factor in
          (0, 1] *)
  queue_caps : (string * int) list;
      (** vertex label → temporary queue capacity (min-combined with the
          vertex's own N) *)
  ingress_drop : float;  (** probability in [0, 1] *)
}
(** Each list holds one entry per target, as {!compose} builds it. *)

val compose : fault list -> modifier
(** The one rule for faults active at the same time, which the
    simulator applies too: offline engines add, bandwidth factors
    multiply, queue caps take the minimum and drop bursts combine as
    1 − Π(1 − p). Each target gets one entry, in order of first
    appearance. [compose []] degrades nothing: evaluation under it
    equals the nominal model. *)

type interval_report = {
  d_start : float;
  d_stop : float;
  degraded : bool;  (** false on healthy stretches between faults *)
  capacity : float;  (** P′_attainable: the device ceiling under D′/B′ *)
  carried : float;
      (** min(capacity, (1 − p)·BW_in) — the model's goodput for the
          interval; 0 when a vertex is fully failed or p = 1 *)
  latency : float;
      (** T′_attainable under the modifier ([infinity] when the
          interval carries nothing) *)
  bottleneck : Throughput.bound;
  slo_ok : bool;
      (** interval meets the SLO (see {!slo_throughput_fraction}) *)
}

val slo_throughput_fraction : float
(** 0.9: an interval violates the SLO when carried < 0.9 · nominal
    carried, or when its latency exceeds twice the nominal latency. *)

type report = {
  intervals : interval_report list;  (** chronological, tiling [0, horizon] *)
  nominal_throughput : float;  (** fault-free attained rate *)
  nominal_latency : float;
  degraded_throughput : float;
      (** time-weighted mean carried rate over the horizon *)
  degraded_latency : float;
      (** delivery-weighted mean latency (weights carried·Δt; intervals
          delivering nothing contribute nothing) *)
  availability : float;
      (** fraction of the horizon spent in SLO-meeting intervals *)
  worst : interval_report option;
      (** the degraded interval with the lowest carried rate *)
}

val evaluate :
  ?queue_model:Latency.queue_model ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  intervals:(float * float * modifier) list ->
  report
(** Evaluate the model once per interval and compose. [intervals] must
    be chronological and non-overlapping (as produced by
    [Lognic_sim.Faults.modifiers]); raises [Invalid_argument] when
    empty, on a non-positive interval, or if the graph fails
    validation. *)
