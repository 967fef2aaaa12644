(** The discrete-event simulation core: a virtual clock plus an event
    queue of closures. Components schedule callbacks at absolute times;
    [run] drains the queue in time order. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds; 0 before the first event. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when [at] is in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> unit
(** Convenience for [schedule ~at:(now t +. delay)]; [delay >= 0]. *)

val every : t -> interval:float -> until:float -> (float -> unit) -> unit
(** [every t ~interval ~until f] calls [f time] at [time = i·interval]
    for [i = 1, 2, ...] while [time <= until] — the periodic scheduler
    behind the metrics ticks ([Metrics.attach] is its only caller, and
    every sampled time series of a run comes from those ticks). An
    [interval] beyond [until] still yields one call, at [until], so the
    end-of-run state is always observed. Each tick schedules the next,
    so periodic events interleave with packet events without reordering
    them. *)

val run :
  ?until:float -> ?observer:(unit -> unit) -> ?profile:Profile.t -> t -> unit
(** Processes events in order until the queue empties or virtual time
    would exceed [until] (remaining events stay queued, and the clock is
    left at [until]). [observer], when given, is called once per event,
    after the clock has advanced to the event's time and just before the
    event executes; it reads that time as {!now}. Calls come in pop
    order, so a well-behaved queue shows it non-decreasing times
    ({!Invariants.observe_event_time}). Taking no argument, the call
    boxes no float.
    [profile], when given, charges queue operations (and observer
    callbacks) to their {!Profile} phases; event thunks run in the
    enclosing phase. The default path (neither given) runs the exact
    pre-observer loop and allocates nothing per event. *)

val executed : t -> int
(** Events executed so far (cumulative across [run] calls; cleared by
    {!reset}) — the numerator of the ledger's [engine.events_per_s]. *)

val queue_resizes : t -> int
(** Storage doublings of this engine's event queue since {!create} (not
    cleared by {!reset}): a reused engine reads no new ones once its
    queue's arrays fit the run's pending events. *)

val reset : t -> unit
(** Back to a fresh engine — clock 0, nothing pending, counter 0 —
    while keeping the event queue's arrays for reuse, so a caller that
    runs many specs on one engine ({!Netsim.execute_with}) stops
    reallocating per run. *)
