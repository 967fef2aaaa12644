(** Weighted choice: pick an index in proportion to its weight.

    The simulator realizes a traffic profile with four weighted draws
    per packet — its class, its out-edge at each hop, its tenant and
    its flow — and they all come from here: a cumulative {!scan} for
    the short weight vectors whose draw order the golden runs pin, and
    a Walker {!alias} table for populations from tens of tenants to
    millions of flows, drawn in O(1). Neither draw allocates. *)

val scan : Rng.t -> float array -> total:float -> int
(** [scan rng weights ~total] draws [Rng.float rng total] and returns
    the first index whose running sum of [weights] (left to right)
    exceeds the draw; the last index takes any remainder. [total] must
    be positive: pass the left-to-right sum of [weights], so a draw
    never passes the end of the table. *)

type alias
(** A Walker alias table over a probability vector, on the 30-bit
    lattice of {!Rng.bits}. *)

val alias : float array -> alias
(** [alias probs] builds the table for probabilities summing to 1.
    Index [i]'s mass is the gap between the cumulative sums through
    [i - 1] and [i], each scaled to 2^30 and truncated, with the last
    edge pinned at 2^30 — so each probability is exact to n·2⁻³⁰.
    [probs] must not be empty. *)

val draw : alias -> int -> int
(** [draw t u] maps a 30-bit draw ([u ∈ \[0, 2^30)]) to an index: one
    multiply, two loads and one compare, with no data-dependent branch
    chain where a binary search pays log₂ n mispredicted branches. *)
