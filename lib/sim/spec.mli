(** One grammar engine for the CLI's colon-separated mini-specs.

    Every repeatable flag that packs a record into one argument —
    [--resource NAME:CAPACITY], [--class-demand CLASS:RESOURCE:VALUE],
    [--interference VICTIM:AGGRESSOR:M], the four fault-plan flags,
    [--queue NAME:LO:HI], [--tenant NAME:WEIGHT[:SHARE[:SLO]]] — parses
    through a declared {!grammar} here instead of an ad-hoc
    [String.split_on_char] match. Declaring the grammar buys three
    things: a uniform quoted-source error message
    ([--flag "SRC": FIELD NAME: reason; expected USAGE]), a derived
    {!usage} string that the CLI shows as the flag's docv, and {!render}
    as the inverse of {!parse} so every grammar is round-trip testable.

    The module is deliberately independent of the DSL: fields that
    accept unit-suffixed quantities ([25Gbps], [4KiB]) take the parser
    as the [?quantity] argument, which the CLI supplies from
    [Lognic_dsl.Quantity]. Without it, [Quantity] fields accept plain
    floats. *)

type kind =
  | Int  (** [int_of_string] syntax *)
  | Float  (** plain float syntax *)
  | Quantity  (** float with optional unit suffix (see [?quantity]) *)
  | Str  (** any non-empty text without [':'] *)

type field

val field : ?optional:bool -> string -> kind -> field
(** A named field, e.g. [field "CAPACITY" Quantity]. [optional]
    (default [false]) marks a trailing field that may be omitted;
    optional fields must come after every required one. *)

type grammar

val grammar : flag:string -> field list -> grammar
(** [grammar ~flag fields] declares the spec accepted by [--flag].
    Raises [Invalid_argument] on an empty field list or a required
    field following an optional one. *)

val flag : grammar -> string

val usage : grammar -> string
(** The spec's shape, e.g. ["NAME:WEIGHT[:SHARE[:SLO]]"]: the flag's
    docv, and the tail of every parse error. *)

type value = I of int | F of float | S of string

val parse :
  ?quantity:(string -> (float, string) result) ->
  grammar ->
  string ->
  (value array, string) result
(** Parse one spec instance. The result array is as long as the number
    of fields present (every required field, plus any prefix of the
    optional ones). Errors are uniformly
    ["--FLAG \"SRC\": FIELD: reason; expected USAGE"]. *)

val render : grammar -> value array -> string
(** The colon form that {!parse} maps back to the same values — the
    round-trip inverse (integers render without a decimal point,
    floats through {!Telemetry.Json.float_repr}). Raises
    [Invalid_argument] when the array cannot have come from this
    grammar (too few/many values, or a kind mismatch). *)

val error : flag:string -> src:string -> string -> string
(** The shared error formatter, exposed so non-colon grammars that ride
    the same flags surface (e.g. [--slo]'s rule language) report in the
    identical quoted-source shape. *)

(** Typed accessors; all raise [Invalid_argument] on a kind mismatch
    (a programming error — [parse] already enforced kinds). *)

val get_int : value array -> int -> int
val get_float : value array -> int -> float
(** Also accepts an [I] value (an integer literal in a float field). *)

val get_str : value array -> int -> string

val find_float : value array -> int -> float option
(** [None] when the (optional) field at that index was omitted. *)
