(* Growable float buffer (stdlib Dynarray only arrives in OCaml 5.2). *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let grow t =
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger

  (* inlinable so the per-delivery latency sample is never boxed *)
  let[@inline] add t x =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Minimal JSON tree + printer + parser. The repo deliberately carries
   no JSON dependency; traces must still round-trip, so both directions
   live here and are property-tested against each other. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let float_repr x =
    (* Integral values dominate exported documents (counters, totals,
       sample counts); print them without the sprintf round-trip. The
       guard keeps the bytes identical to what %.15g would emit: below
       1e15 the %g fixed notation is exactly the digits, and 0 is
       excluded so "-0" survives. *)
    if Float.is_integer x && Float.abs x < 1e15 && x <> 0. then
      string_of_int (int_of_float x)
    else
      (* shortest decimal that parses back exactly *)
      let s = Printf.sprintf "%.15g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

  let write_string buf s =
    (* almost every exported string (labels, metric names, schema kinds)
       needs no escaping; copy those in one add_string *)
    let n = String.length s in
    let rec clean i =
      i >= n
      ||
      match String.unsafe_get s i with
      | '"' | '\\' -> false
      | c when Char.code c < 0x20 -> false
      | _ -> clean (i + 1)
    in
    Buffer.add_char buf '"';
    if clean 0 then Buffer.add_string buf s
    else
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
    Buffer.add_char buf '"'

  let write_num buf x =
    if not (Float.is_finite x) then Buffer.add_string buf "null"
    else if Float.is_integer x && Float.abs x < 1e15 then
      if x = 0. then
        (* sprintf keeps the "-0" spelling the fast path would lose *)
        Buffer.add_string buf (Printf.sprintf "%.0f" x)
      else Buffer.add_string buf (string_of_int (int_of_float x))
    else Buffer.add_string buf (float_repr x)

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> write_num buf x
    | Str s -> write_string buf s
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let utf8_of_code buf code =
      (* enough for the BMP; the writer never emits surrogate pairs *)
      if code < 0x80 then Buffer.add_char buf (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec scan () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code ->
              pos := !pos + 4;
              utf8_of_code buf code
            | None -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          scan ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          scan ()
      in
      scan ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && number_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected a number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> x
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  (* Every exporter in the repo stamps its top-level object through
     here, so "which schema am I parsing" is answerable from the
     document alone. The version comes from the {!Schema} registry:
     an unregistered kind raises, which keeps the table complete. *)
  let schema_version = 1

  let versioned ~kind fields =
    Obj
      (("schema", Str kind)
      :: ("schema_version", Num (float_of_int (Schema.version_of_exn kind)))
      :: fields)
end

(* Ring-buffer time series: bounded memory however long the run, the
   newest [capacity] samples win. *)
module Series = struct
  type t = {
    label : string;
    interval : float;
    capacity : int;
    times : float array;
    values : float array;
    mutable len : int;
    mutable next : int;  (* ring write position *)
  }

  let create ?(capacity = 4096) ~label ~interval () =
    if capacity < 1 then invalid_arg "Series.create: capacity must be >= 1";
    if interval <= 0. then invalid_arg "Series.create: interval must be > 0";
    {
      label;
      interval;
      capacity;
      times = Array.make capacity 0.;
      values = Array.make capacity 0.;
      len = 0;
      next = 0;
    }

  let label t = t.label
  let interval t = t.interval
  let capacity t = t.capacity
  let length t = t.len

  let add t ~time ~value =
    t.times.(t.next) <- time;
    t.values.(t.next) <- value;
    t.next <- (t.next + 1) mod t.capacity;
    if t.len < t.capacity then t.len <- t.len + 1

  let to_array t =
    Array.init t.len (fun i ->
        let idx = (t.next - t.len + i + (2 * t.capacity)) mod t.capacity in
        (t.times.(idx), t.values.(idx)))

  let to_json t =
    Json.Obj
      [
        ("label", Json.Str t.label);
        ("interval", Json.Num t.interval);
        ( "samples",
          Json.Arr
            (Array.to_list
               (Array.map
                  (fun (time, v) -> Json.Arr [ Json.Num time; Json.Num v ])
                  (to_array t))) );
      ]

  let to_csv t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "time,%s\n" t.label);
    Array.iter
      (fun (time, v) ->
        Buffer.add_string buf (Json.float_repr time);
        Buffer.add_char buf ',';
        Buffer.add_string buf (Json.float_repr v);
        Buffer.add_char buf '\n')
      (to_array t);
    Buffer.contents buf
end

type drop_site =
  | Node_queue of { node : string; queue : int }
  | Medium_buffer of string
  | Fault_burst

let drop_site_name = function
  | Node_queue { node; queue } -> Printf.sprintf "node:%s/q%d" node queue
  | Medium_buffer label -> Printf.sprintf "medium:%s" label
  | Fault_burst -> "fault:burst"

let pp_drop_site ppf site = Format.pp_print_string ppf (drop_site_name site)

type latency_terms = {
  queueing : float;
  service : float;
  wire : float;
  overhead : float;
}

let zero_terms = { queueing = 0.; service = 0.; wire = 0.; overhead = 0. }

let terms_total { queueing; service; wire; overhead } =
  queueing +. service +. wire +. overhead

(* Layout of the per-flight float scratch array shared by the zero-
   allocation accounting path ([record_completion_fs]): the four Eq. 2
   latency terms accumulated along the walk, then birth time, size, and
   the completion time — all unboxed float-array slots, so the sim hot
   path updates them without boxing a single float. *)
let slot_queueing = 0
let slot_service = 1
let slot_wire = 2
let slot_overhead = 3
let slot_born = 4
let slot_size = 5
let slot_now = 6
let flight_slots = 7

(* An interned per-site drop counter: the sim resolves the site to a
   counter once at setup and bumps an int per drop, instead of hashing
   a polymorphic [drop_site] key on every shed packet. *)
type counter = { c_site : drop_site; mutable c_hits : int }

type t = {
  warmup : float;
  mutable offered : int;
  mutable dropped : int;
  mutable delivered : int;
  fsums : float array;
      (* unboxed accumulators: 0 delivered_bytes, then the four
         latency-term sums (queueing/service/wire/overhead) *)
  latencies : Buf.t;
  mutable class_counts : int array;  (* dense by class index *)
  mutable class_sums : float array;
  mutable counters : counter list;
}

let create ~warmup =
  {
    warmup;
    offered = 0;
    dropped = 0;
    delivered = 0;
    fsums = Array.make 5 0.;
    latencies = Buf.create ();
    class_counts = Array.make 8 0;
    class_sums = Array.make 8 0.;
    counters = [];
  }

let[@inline] record_arrival t ~now ~size =
  ignore size;
  if now >= t.warmup then t.offered <- t.offered + 1

(* Read-only probes over the windowed accumulators, for the live
   metrics layer ({!Metrics}): cumulative values at call time. *)
let offered t = t.offered
let delivered t = t.delivered
let dropped t = t.dropped
let delivered_bytes t = t.fsums.(0)
let counters t = List.rev t.counters  (* interning order *)
let counter_site c = c.c_site
let counter_hits c = c.c_hits

let drop_counter t site =
  match List.find_opt (fun c -> c.c_site = site) t.counters with
  | Some c -> c
  | None ->
    let c = { c_site = site; c_hits = 0 } in
    t.counters <- c :: t.counters;
    c

let[@inline] record_drop_counted t ~born c =
  if born >= t.warmup then begin
    t.dropped <- t.dropped + 1;
    c.c_hits <- c.c_hits + 1
  end

let grow_classes t klass =
  let n = Array.length t.class_counts in
  let bigger = max (klass + 1) (2 * n) in
  let counts = Array.make bigger 0 in
  let sums = Array.make bigger 0. in
  Array.blit t.class_counts 0 counts 0 n;
  Array.blit t.class_sums 0 sums 0 n;
  t.class_counts <- counts;
  t.class_sums <- sums

let[@inline] bump_class t klass latency =
  if klass >= Array.length t.class_counts then grow_classes t klass;
  t.class_counts.(klass) <- t.class_counts.(klass) + 1;
  t.class_sums.(klass) <- t.class_sums.(klass) +. latency

(* The allocation-free completion record: every float comes in through
   the caller's scratch array and lands in unboxed accumulators. *)
let record_completion_fs t ~fs ~klass =
  let born = fs.(slot_born) in
  if born >= t.warmup then begin
    t.delivered <- t.delivered + 1;
    t.fsums.(0) <- t.fsums.(0) +. fs.(slot_size);
    let latency = fs.(slot_now) -. born in
    Buf.add t.latencies latency;
    t.fsums.(1) <- t.fsums.(1) +. fs.(slot_queueing);
    t.fsums.(2) <- t.fsums.(2) +. fs.(slot_service);
    t.fsums.(3) <- t.fsums.(3) +. fs.(slot_wire);
    t.fsums.(4) <- t.fsums.(4) +. fs.(slot_overhead);
    bump_class t klass latency
  end

(* Per-row attribution (tenants, flow-cache classes, fault bins):
   struct-of-arrays over dense row ids, sized once at creation, so
   every record is a handful of unboxed stores. *)
module Table = struct
  (* 64 log₂ latency buckets per row in one flat int array: bucket [k]
     holds latencies in [2^(k−40), 2^(k−39)) seconds, covering
     sub-picosecond to ~2-week latencies. Good to a factor of 2 at the
     tail, which is what an SLO verdict and a noisy-neighbor ranking
     need, at a cost of one store per delivery. *)
  let buckets = 64

  let[@inline] bucket_of lat =
    if lat <= 0. then 0
    else begin
      let b = int_of_float (Float.floor (Float.log2 lat)) + 40 in
      if b < 0 then 0 else if b > buckets - 1 then buckets - 1 else b
    end

  let bucket_upper b = Float.pow 2. (float_of_int (b - 39))

  type t = {
    cutoff : float;
    offered : int array;
    dropped : int array;
    delivered : int array;
    offered_bytes : float array;
    delivered_bytes : float array;
    lat_sum : float array;
    lat_max : float array;
    q_sum : float array;
    s_sum : float array;
    w_sum : float array;
    o_sum : float array;
    hist : int array;  (* rows × buckets *)
  }

  let create ~rows ~cutoff =
    let ints () = Array.make rows 0 and floats () = Array.make rows 0. in
    {
      cutoff;
      offered = ints ();
      dropped = ints ();
      delivered = ints ();
      offered_bytes = floats ();
      delivered_bytes = floats ();
      lat_sum = floats ();
      lat_max = floats ();
      q_sum = floats ();
      s_sum = floats ();
      w_sum = floats ();
      o_sum = floats ();
      hist = Array.make (rows * buckets) 0;
    }

  let cutoff t = t.cutoff

  let[@inline] record_offered t ~row fs =
    if fs.(slot_born) >= t.cutoff then begin
      t.offered.(row) <- t.offered.(row) + 1;
      t.offered_bytes.(row) <- t.offered_bytes.(row) +. fs.(slot_size)
    end

  let[@inline] record_dropped t ~row fs =
    if fs.(slot_born) >= t.cutoff then t.dropped.(row) <- t.dropped.(row) + 1

  let[@inline] record_delivered t ~row fs =
    let born = fs.(slot_born) in
    if born >= t.cutoff then begin
      let lat = fs.(slot_now) -. born in
      t.delivered.(row) <- t.delivered.(row) + 1;
      t.delivered_bytes.(row) <- t.delivered_bytes.(row) +. fs.(slot_size);
      t.lat_sum.(row) <- t.lat_sum.(row) +. lat;
      if lat > t.lat_max.(row) then t.lat_max.(row) <- lat;
      t.q_sum.(row) <- t.q_sum.(row) +. fs.(slot_queueing);
      t.s_sum.(row) <- t.s_sum.(row) +. fs.(slot_service);
      t.w_sum.(row) <- t.w_sum.(row) +. fs.(slot_wire);
      t.o_sum.(row) <- t.o_sum.(row) +. fs.(slot_overhead);
      let b = (row * buckets) + bucket_of lat in
      t.hist.(b) <- t.hist.(b) + 1
    end

  let offered t row = t.offered.(row)
  let dropped t row = t.dropped.(row)
  let delivered t row = t.delivered.(row)
  let offered_bytes t row = t.offered_bytes.(row)
  let delivered_bytes t row = t.delivered_bytes.(row)
  let max_latency t row = t.lat_max.(row)

  (* Inlined, and [p99] below scans without a closure: summaries over
     thousands of rows allocate only the floats they return. *)
  let[@inline] mean t row sums =
    let d = t.delivered.(row) in
    if d = 0 then 0. else sums.(row) /. float_of_int d

  let mean_latency t row = mean t row t.lat_sum

  let mean_terms t row =
    {
      queueing = mean t row t.q_sum;
      service = mean t row t.s_sum;
      wire = mean t row t.w_sum;
      overhead = mean t row t.o_sum;
    }

  (* The smallest bucket whose cumulative count reaches ⌈0.99·n⌉. *)
  let p99 t row =
    let delivered = t.delivered.(row) in
    if delivered = 0 then 0.
    else begin
      let target = int_of_float (Float.ceil (0.99 *. float_of_int delivered)) in
      let base = row * buckets in
      let b = ref 0 and seen = ref t.hist.(base) in
      while !seen < target && !b < buckets - 1 do
        incr b;
        seen := !seen + t.hist.(base + !b)
      done;
      if !seen >= target then Float.min (bucket_upper !b) t.lat_max.(row)
      else t.lat_max.(row)
    end
end

type summary = {
  window : float;
  offered_packets : int;
  delivered_packets : int;
  dropped_packets : int;
  delivered_bytes : float;
  throughput : float;
  packet_rate : float;
  mean_latency : float;
  p50_latency : float;
  p99_latency : float;
  max_latency : float;
  loss_rate : float;
  per_class : (int * int * float) list;
  drop_breakdown : (drop_site * int) list;
  latency_terms : latency_terms;
}

let summarize t ~horizon =
  let window = Float.max 0. (horizon -. t.warmup) in
  let latencies = Buf.to_array t.latencies in
  (* one sort feeds every order statistic (p50/p99/max) *)
  let sorted =
    if Array.length latencies = 0 then None
    else Some (Lognic_numerics.Stats.Sorted.of_array latencies)
  in
  let stat f = match sorted with None -> 0. | Some s -> f s in
  let per_class =
    let dense = ref [] in
    Array.iteri
      (fun klass count ->
        if count > 0 then
          dense :=
            (klass, count, t.class_sums.(klass) /. float_of_int count)
            :: !dense)
      t.class_counts;
    List.rev !dense
  in
  let drop_breakdown =
    List.filter_map
      (fun c -> if c.c_hits > 0 then Some (c.c_site, c.c_hits) else None)
      t.counters
    |> List.sort (fun (sa, ca) (sb, cb) ->
           match compare cb ca with 0 -> compare sa sb | c -> c)
  in
  let latency_terms =
    if t.delivered = 0 then zero_terms
    else
      let d = float_of_int t.delivered in
      {
        queueing = t.fsums.(1) /. d;
        service = t.fsums.(2) /. d;
        wire = t.fsums.(3) /. d;
        overhead = t.fsums.(4) /. d;
      }
  in
  {
    window;
    offered_packets = t.offered;
    delivered_packets = t.delivered;
    dropped_packets = t.dropped;
    delivered_bytes = t.fsums.(0);
    throughput = (if window > 0. then t.fsums.(0) /. window else 0.);
    packet_rate =
      (if window > 0. then float_of_int t.delivered /. window else 0.);
    mean_latency =
      (if Array.length latencies = 0 then 0.
       else Lognic_numerics.Stats.mean latencies);
    p50_latency = stat (fun s -> Lognic_numerics.Stats.Sorted.percentile s 50.);
    p99_latency = stat (fun s -> Lognic_numerics.Stats.Sorted.percentile s 99.);
    max_latency = stat Lognic_numerics.Stats.Sorted.maximum;
    loss_rate =
      (if t.offered = 0 then 0.
       else float_of_int t.dropped /. float_of_int t.offered);
    per_class;
    drop_breakdown;
    latency_terms;
  }

let terms_to_json terms =
  Json.Obj
    [
      ("queueing", Json.Num terms.queueing);
      ("service", Json.Num terms.service);
      ("wire", Json.Num terms.wire);
      ("overhead", Json.Num terms.overhead);
    ]

let to_json s =
  Json.Obj
    [
      ("window", Json.Num s.window);
      ("offered_packets", Json.Num (float_of_int s.offered_packets));
      ("delivered_packets", Json.Num (float_of_int s.delivered_packets));
      ("dropped_packets", Json.Num (float_of_int s.dropped_packets));
      ("delivered_bytes", Json.Num s.delivered_bytes);
      ("throughput", Json.Num s.throughput);
      ("packet_rate", Json.Num s.packet_rate);
      ("mean_latency", Json.Num s.mean_latency);
      ("p50_latency", Json.Num s.p50_latency);
      ("p99_latency", Json.Num s.p99_latency);
      ("max_latency", Json.Num s.max_latency);
      ("loss_rate", Json.Num s.loss_rate);
      ( "per_class",
        Json.Arr
          (List.map
             (fun (klass, count, mean) ->
               Json.Obj
                 [
                   ("class", Json.Num (float_of_int klass));
                   ("delivered", Json.Num (float_of_int count));
                   ("mean_latency", Json.Num mean);
                 ])
             s.per_class) );
      ( "drop_breakdown",
        Json.Arr
          (List.map
             (fun (site, count) ->
               Json.Obj
                 [
                   ("site", Json.Str (drop_site_name site));
                   ("drops", Json.Num (float_of_int count));
                 ])
             s.drop_breakdown) );
      ("latency_terms", terms_to_json s.latency_terms);
    ]
