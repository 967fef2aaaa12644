(** Parallel simulation on OCaml 5 domains: the domain pool of
    {!Lognic_numerics.Parallel} under the simulator's name. The ledger
    renders figures through it; the library's own sweeps call
    {!Lognic_numerics.Parallel.map} directly.

    {b Determinism guarantee}: every simulation derives its randomness
    from an explicit per-run seed and touches no shared mutable state,
    so all entry points return results {e bit-identical} to their
    sequential counterparts at every [jobs] count — parallelism changes
    wall-clock time only. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving, exception-propagating parallel [List.map]; see
    {!Lognic_numerics.Parallel.map}. [jobs] defaults to the global
    default (set via [--jobs] in the CLI and the ledger). *)
