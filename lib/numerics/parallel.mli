(** A fixed-size domain pool for embarrassingly parallel sweeps.

    Built on stdlib [Domain] (OCaml 5): a lazily-spawned pool of worker
    domains shared by the whole process, fed through a queue of runner
    thunks; each [map] batch drains a private atomic work index, so
    element order and results are independent of scheduling. Any [f]
    that is deterministic per element therefore yields results
    bit-identical to [List.map f] at every job count. Exceptions are
    re-raised in the caller — the one thrown by the smallest input
    index wins, deterministically. A caller waiting on its batch helps
    execute queued work, so nested [map] calls cannot deadlock. *)

val set_default_jobs : int -> unit
(** Set the default parallelism (clamped to [>= 1]), e.g. from a
    [--jobs] flag. It starts at [Domain.recommended_domain_count ()]
    (so 1 on a single-core machine: everything stays sequential unless
    asked). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] evaluated by up to [jobs]
    domains, the caller included. [jobs] defaults to the default parallelism;
    [jobs <= 1] or a short list runs sequentially in the caller. *)
