(** Deterministic pseudo-random number generation.

    All stochastic code in this project draws through an explicit [Rng.t]
    so that simulations and property tests are reproducible from a seed.
    The implementation wraps [Random.State] (xoshiro under OCaml 5). *)

type t

val create : seed:int -> t
(** [create ~seed] returns a generator whose stream is a pure function of
    [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use one split per simulator component so that adding draws to one
    component does not perturb the streams of the others. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. [bound] must be
    positive. Bit for bit the draw of [Random.State.float] on the same
    state, without its per-draw float box. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)]. [bound] must be
    positive. *)

val bits : t -> int
(** [bits t] draws 30 uniform bits. *)
