(** Parallel simulation driver (OCaml 5 domains).

    {!Netsim.run} is the repo's slow path — exactly the packet-level
    simulator the paper's pitch is measured against — and replicated
    runs, figure sweeps, and optimizer grids execute many mutually
    independent simulations. This module fans them out over the domain
    pool of {!Lognic_numerics.Parallel}.

    {b Determinism guarantee}: every simulation derives its randomness
    from an explicit per-run seed and touches no shared mutable state,
    so all entry points return results {e bit-identical} to their
    sequential counterparts at every [jobs] count — parallelism changes
    wall-clock time only. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving, exception-propagating parallel [List.map]; see
    {!Lognic_numerics.Parallel.map}. [jobs] defaults to the global
    default (set via [--jobs] in the CLI and the ledger). *)
