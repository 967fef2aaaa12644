(** Wall-clock self-profiler for the engine hot loop.

    Components bracket work with {!enter}/{!leave} around a fixed set
    of phases (queue operations, node service, media arbitration,
    observer callbacks, other).  Accounting is {e self time}: entering
    a nested phase stops the parent's clock, so the phase totals
    partition the profiled wall-clock span.  {!tick} closes an interval
    and records per-phase and GC/allocation deltas.

    Profiling measures the host, not the model: its numbers are
    nondeterministic and are exported as a separate [schema:"profile"]
    document, never mixed into the deterministic metrics stream. *)

type t

(** {2 Phases} *)

val phase_queue : int
(** Event-queue operations (locate / pop) in {!Engine.run}. *)

val phase_node : int
(** {!Ip_node} dispatch and service completion. *)

val phase_media : int
(** {!Medium} transfer admission and arbitration. *)

val phase_observer : int
(** Engine observer callbacks (invariant checker). *)

val phase_other : int
(** Everything outside the bracketed phases (event thunks' own work,
    setup, metrics ticks). The initial phase. *)

(** {2 Accounting} *)

val create : unit -> t
(** Starts the clock in {!phase_other}. *)

val enter : t -> int -> int
(** [enter t phase] charges the span since the last switch to the
    running phase, switches to [phase], and returns the previous phase
    for the matching {!leave}. *)

val leave : t -> int -> unit
(** [leave t prev] charges the running phase and restores [prev]. *)

type row = {
  r_time : float;  (** sim time at the end of the interval *)
  r_wall : float;  (** wall seconds spanned by the interval *)
  r_phases : float array;  (** self seconds per phase this interval *)
  r_enters : int array;  (** phase entries this interval *)
  r_minor_words : float;
  r_promoted_words : float;
  r_major_words : float;
  r_collections : int;  (** minor + major collections this interval *)
}

val tick : t -> time:float -> row
(** Close the current interval at sim time [time]: record per-phase
    self-time and GC deltas since the previous tick (or {!create}). *)

(** {2 Reports} *)

val self_seconds : t -> int -> float
(** Cumulative self seconds of a phase. *)

val enter_count : t -> int -> int

val to_json : t -> Telemetry.Json.t
(** [schema:"profile"] document: phase totals plus the interval rows. *)

val pp : Format.formatter -> t -> unit
