(** Little's law (L = λW) as a check over simulator measurements. *)

val consistent :
  ?tol:float ->
  arrival_rate:float ->
  time_in_system:float ->
  number_in_system:float ->
  unit ->
  bool
(** Checks L ≈ λW within relative tolerance [tol] (default 5%); useful as
    an invariant over simulator measurements. *)
