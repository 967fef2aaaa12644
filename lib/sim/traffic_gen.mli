(** Open-loop traffic generation over a {!Lognic.Traffic.mix}.

    Packets per second of class [i] is [rate_i / size_i]; the aggregate
    stream is either Poisson (the paper's data-center arrival
    assumption) or evenly paced (an ablation), with the class of each
    packet drawn proportionally to its packet rate. *)

type arrival =
  | Poisson  (** exponential inter-arrival times *)
  | Paced  (** deterministic inter-arrival at the aggregate rate *)
  | Bursty of { burstiness : float; mean_on : float }
      (** ON/OFF-modulated Poisson (§2.4's "burst degree"): during
          exponentially-distributed ON phases of mean [mean_on] seconds
          the instantaneous rate is [burstiness] × the aggregate rate;
          OFF phases are sized so the long-run mean rate is preserved
          (expected OFF length = [mean_on × (burstiness − 1)]).
          [burstiness] must be > 1. *)

type t

val create :
  Engine.t ->
  rng:Lognic_numerics.Rng.t ->
  arrival:arrival ->
  mix:Lognic.Traffic.mix ->
  on_arrival:(int -> unit) ->
  t
(** [on_arrival klass] fires once per generated packet with the drawn
    class index (position in [mix]). The callback derives everything
    else itself — birth time is the engine's current time, size is the
    class's packet size, ids are dense in arrival order — so the
    generator never materializes a packet record. *)

val start : t -> until:float -> unit
(** Schedules the arrival process from the current time up to (not
    including) [until]. *)

val generated : t -> int
