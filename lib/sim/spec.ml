type kind = Int | Float | Quantity | Str

type field = { f_name : string; f_kind : kind; f_optional : bool }

let field ?(optional = false) name kind =
  { f_name = name; f_kind = kind; f_optional = optional }

type grammar = { g_flag : string; g_fields : field array }

let grammar ~flag fields =
  if fields = [] then invalid_arg "Spec.grammar: no fields";
  let seen_optional = ref false in
  List.iter
    (fun f ->
      if f.f_optional then seen_optional := true
      else if !seen_optional then
        invalid_arg
          (Printf.sprintf
             "Spec.grammar (--%s): required field %s follows an optional one"
             flag f.f_name))
    fields;
  { g_flag = flag; g_fields = Array.of_list fields }

let flag g = g.g_flag

(* ["NAME:WEIGHT[:SHARE[:SLO]]"] — the docv-style shape string. *)
let usage g =
  let buf = Buffer.create 32 in
  let opened = ref 0 in
  Array.iteri
    (fun i f ->
      if f.f_optional then begin
        Buffer.add_char buf '[';
        incr opened
      end;
      if i > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf f.f_name)
    g.g_fields;
  for _ = 1 to !opened do
    Buffer.add_char buf ']'
  done;
  Buffer.contents buf

type value = I of int | F of float | S of string

let error ~flag ~src msg = Printf.sprintf "--%s %S: %s" flag src msg

let field_error g ~src f msg =
  error ~flag:g.g_flag ~src
    (Printf.sprintf "%s: %s; expected %s" f.f_name msg (usage g))

let shape_error g ~src msg =
  error ~flag:g.g_flag ~src (Printf.sprintf "%s; expected %s" msg (usage g))

let required_count g =
  Array.fold_left
    (fun n f -> if f.f_optional then n else n + 1)
    0 g.g_fields

let parse_field ?quantity g ~src f raw =
  match f.f_kind with
  | Int -> (
    match int_of_string_opt raw with
    | Some v -> Ok (I v)
    | None -> Error (field_error g ~src f (Printf.sprintf "not an integer: %S" raw)))
  | Float -> (
    match float_of_string_opt raw with
    | Some v -> Ok (F v)
    | None -> Error (field_error g ~src f (Printf.sprintf "not a number: %S" raw)))
  | Quantity -> (
    let parsed =
      match quantity with
      | Some parse -> parse raw
      | None -> (
        match float_of_string_opt raw with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "not a number: %S" raw))
    in
    match parsed with
    | Ok v -> Ok (F v)
    | Error e -> Error (field_error g ~src f e))
  | Str ->
    if raw = "" then Error (field_error g ~src f "empty")
    else Ok (S raw)

let parse ?quantity g src =
  let parts = String.split_on_char ':' src in
  let given = List.length parts in
  let total = Array.length g.g_fields in
  let needed = required_count g in
  if given < needed then
    Error
      (shape_error g ~src
         (Printf.sprintf "%d field%s given, at least %d required" given
            (if given = 1 then "" else "s")
            needed))
  else if given > total then
    Error
      (shape_error g ~src
         (Printf.sprintf "%d fields given, at most %d accepted" given total))
  else
    let rec go i acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | raw :: rest -> (
        match parse_field ?quantity g ~src g.g_fields.(i) raw with
        | Ok v -> go (i + 1) (v :: acc) rest
        | Error _ as e -> e)
    in
    go 0 [] parts

let parse_all ?quantity g srcs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | src :: rest -> (
      match parse ?quantity g src with
      | Ok v -> go (v :: acc) rest
      | Error _ as e -> e)
  in
  go [] srcs

let render g values =
  let n = Array.length values in
  if n < required_count g || n > Array.length g.g_fields then
    invalid_arg
      (Printf.sprintf "Spec.render (--%s): %d values for %s" g.g_flag n
         (usage g));
  let part i v =
    let f = g.g_fields.(i) in
    match (f.f_kind, v) with
    | Int, I x -> string_of_int x
    | (Float | Quantity), F x -> Telemetry.Json.float_repr x
    | (Float | Quantity), I x -> string_of_int x
    | Str, S s ->
      if s = "" || String.contains s ':' then
        invalid_arg
          (Printf.sprintf "Spec.render (--%s): %s cannot hold %S" g.g_flag
             f.f_name s)
      else s
    | _ ->
      invalid_arg
        (Printf.sprintf "Spec.render (--%s): kind mismatch at %s" g.g_flag
           f.f_name)
  in
  String.concat ":" (List.mapi part (Array.to_list values))

let kind_mismatch i =
  invalid_arg (Printf.sprintf "Spec: kind mismatch at field %d" i)

let get_int values i =
  match values.(i) with I v -> v | _ -> kind_mismatch i

let get_float values i =
  match values.(i) with F v -> v | I v -> float_of_int v | _ -> kind_mismatch i

let get_str values i =
  match values.(i) with S s -> s | _ -> kind_mismatch i

let find_float values i =
  if i < Array.length values then Some (get_float values i) else None
