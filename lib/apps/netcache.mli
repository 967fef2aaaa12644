(** An in-network key-value cache on an RMT switch — exercising the
    §5.3 programmable-switch generalization (after NetCache, SOSP'17).

    Read requests for hot keys are answered directly from the switch's
    register memory (the {e hit} path: one extra register access, no
    server involvement); the rest travel to a storage server behind the
    switch and back (the {e miss} path: a second switch pass on the way
    out). As the cache hit ratio grows, server load falls and the
    system's sustainable request rate rises — the classic NetCache
    curve, produced here by the LogNIC model and cross-checked by the
    simulator. *)

type config = {
  request_size : float;  (** bytes per query/response packet *)
  value_bytes : float;  (** register bytes touched per cache hit *)
  server_rate : float;  (** server KV lookup capacity, requests/s *)
  server_think : float;  (** per-request server service time floor, s *)
}

val default : config
(** 128 B requests, 128 B values, a 4 M req/s server at 8 µs per
    lookup. *)

type point = {
  hit_ratio : float;
  model_rps : float;  (** sustainable requests/s, analytic *)
  measured_rps : float;  (** simulator goodput at saturating load *)
  model_latency : float;  (** mean at 70% of sustainable load *)
  server_share : float;  (** fraction of requests reaching the server *)
}

val hit_ratio_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  config ->
  point list
(** The NetCache headline sweep over hit ratios 0, 0.25, 0.5, 0.75, 0.9
    and 0.99 ({!Study} entry-point conventions:
    [?duration] / [?seed] / [?jobs]; point [i] simulates with seed
    [seed + i]). *)

val speedup_at : hit_ratio:float -> config -> float
(** Sustainable-rate gain over the no-cache baseline. *)
