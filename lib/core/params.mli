(** Model parameters (paper Table 2).

    Per-vertex software parameters (P, D, N, O, A, γ) live on the graph
    itself ({!Graph.service}); per-edge parameters (δ, α, β, BW_mn) on
    the edges. This module holds what remains: the device-wide hardware
    parameters and a glossary used by the CLI to print Table 2. *)

type hardware = {
  bw_interface : float;
      (** BW_INTF — aggregate SoC interface bandwidth shared by all
          α-traffic, bytes/s *)
  bw_memory : float;
      (** BW_MEM — memory-subsystem bandwidth shared by all β-traffic,
          bytes/s *)
  resources : (string * float) list;
      (** Named shared-resource capacities beyond the two modeled media —
          e.g. [("cache", bytes/s of LLC fill bandwidth)] — consumed by
          the multi-resource contention layer
          ({!Extensions.mixed_traffic}). Empty means no contention
          modeling; the base model ignores this field entirely. *)
}

val hardware : bw_interface:float -> bw_memory:float -> hardware
(** Raises [Invalid_argument] on a bandwidth that is not finite and
    positive. [resources] starts empty; attach capacities with
    {!with_resources}. *)

val with_resources : hardware -> (string * float) list -> hardware
(** Replaces the named shared-resource capacities. Raises
    [Invalid_argument] on an empty name, a capacity that is not finite
    and positive, or a duplicate name. *)

val resource_capacity : hardware -> string -> float option

(** The media a byte crosses: the two device-wide media and an edge's
    dedicated link (source and destination vertex ids). *)
type medium = Interface | Memory | Link of int * int

val medium_name : medium -> string
(** ["interface"], ["memory"], ["link-SRC-DST"]: the one spelling of a
    medium's name in the simulator's media and drop sites, reports,
    rooflines and fault plans. *)

type source = Spec | Characterization | Configurable
(** Where a parameter's value comes from (Table 2's SPEC/CHAR/CONF
    column). *)

type entry = {
  symbol : string;
  name : string;
  description : string;
  source : source;
}

val table2 : entry list
(** The parameter glossary exactly as the paper's Table 2 lists it. *)

val pp_entry : Format.formatter -> entry -> unit
