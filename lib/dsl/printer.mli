(** Rendering graphs back into the DSL format ({!Parser} round-trips
    the output). *)

val document_to_string : Parser.document -> string

val to_dot : Lognic.Graph.t -> string
(** Graphviz rendering: ingress/egress as houses, IPs as boxes labelled
    with their P/D/N, edges labelled with δ and their medium usage.
    Pipe through [dot -Tsvg] to visualize an execution graph. *)
