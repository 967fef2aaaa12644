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
  let versioned ~kind fields =
    Obj
      (("schema", Str kind)
      :: ("schema_version", Num (float_of_int (Schema.version_of_exn kind)))
      :: fields)
end

(* Ring-buffer time series: bounded memory however long the run, the
   newest [capacity] samples win. The arrays start small and double up
   to [capacity], so a short run does not pay for the full ring. *)
module Series = struct
  let capacity = 4096

  type t = {
    label : string;
    interval : float;
    mutable times : float array;
    mutable values : float array;
    mutable len : int;
    mutable next : int;  (* ring write position *)
  }

  let create ~label ~interval () =
    if interval <= 0. then invalid_arg "Series.create: interval must be > 0";
    {
      label;
      interval;
      times = Array.make 16 0.;
      values = Array.make 16 0.;
      len = 0;
      next = 0;
    }

  let label t = t.label

  (* Before the ring wraps the samples fill [0, len) of arrays exactly
     [len] long, so doubling them is a plain append. *)
  let grow t =
    let extra = Array.make (min t.len (capacity - t.len)) 0. in
    t.times <- Array.append t.times extra;
    t.values <- Array.append t.values extra

  let add t ~time ~value =
    if t.len = Array.length t.times && t.len < capacity then grow t;
    t.times.(t.next) <- time;
    t.values.(t.next) <- value;
    t.next <- (t.next + 1) mod capacity;
    if t.len < capacity then t.len <- t.len + 1

  let to_array t =
    Array.init t.len (fun i ->
        let idx = (t.next - t.len + i + (2 * capacity)) mod capacity in
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

type latency_terms = {
  queueing : float;
  service : float;
  wire : float;
  overhead : float;
}

let terms_total { queueing; service; wire; overhead } =
  queueing +. service +. wire +. overhead

(* Layout of the per-flight float scratch array every record reads
   (the aggregate account, {!Table} rows): the four Eq. 2 latency terms
   accumulated along the walk, then birth time, size, and the
   completion time — all unboxed float-array slots, so the sim hot path
   updates them without boxing a single float. *)
let slot_queueing = 0
let slot_service = 1
let slot_wire = 2
let slot_overhead = 3
let slot_born = 4
let slot_size = 5
let slot_now = 6
let flight_slots = 7

(* Per-row attribution (the run and its traffic classes, tenants,
   flow-cache classes, fault bins): struct-of-arrays over dense row
   ids, sized once at creation, so every record is a handful of
   unboxed stores. *)
module Table = struct
  (* 64 log₂ latency buckets per row in one flat int array: bucket [k]
     holds latencies in (2^(k−40), 2^(k−39)] seconds, covering
     sub-picosecond to ~2-week latencies. Good to a factor of 2 at the
     tail, which is what an SLO verdict and a noisy-neighbor ranking
     need, at a cost of one store per delivery. *)
  let buckets = 64

  (* ⌈log₂ lat⌉ + 39, read off the float's bits: the exponent, minus
     one when the fraction is zero (an exact power of two closes the
     bucket below it). [Float.log2] would round the largest float
     below 2^j up to j. *)
  let[@inline] bucket_of lat =
    if not (lat > 0.) then 0
    else begin
      let bits = Int64.to_int (Int64.bits_of_float lat) in
      let exp = ((bits lsr 52) land 0x7ff) - 1023 in
      let b = if bits land 0xf_ffff_ffff_ffff = 0 then exp + 39 else exp + 40 in
      if b < 0 then 0 else if b > buckets - 1 then buckets - 1 else b
    end

  let bucket_upper b = Float.ldexp 1. (b - 39)

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

  let rows t = Array.length t.offered
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
  let latency_sum t row = t.lat_sum.(row)
  let max_latency t row = t.lat_max.(row)
  let bucket_count t row b = t.hist.((row * buckets) + b)

  (* Inlined, and [quantile_bucket] scans without a closure: summaries
     over thousands of rows allocate only the floats they return. *)
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

  let quantile_bucket counts ~base ~total q =
    let target = int_of_float (Float.ceil (q *. float_of_int total)) in
    let b = ref 0 and seen = ref counts.(base) in
    while !seen < target && !b < buckets - 1 do
      incr b;
      seen := !seen + counts.(base + !b)
    done;
    !b

  let p99 t row =
    let delivered = t.delivered.(row) in
    if delivered = 0 then 0.
    else
      Float.min
        (bucket_upper
           (quantile_bucket t.hist ~base:(row * buckets) ~total:delivered 0.99))
        t.lat_max.(row)
end

(* An interned per-site drop counter: the sim resolves the site to a
   counter once at setup and bumps an int per drop, instead of hashing
   a polymorphic [drop_site] key on every shed packet. *)
type counter = { c_site : drop_site; mutable c_hits : int }

type t = {
  table : Table.t;  (* row 0: the run; row 1 + k: traffic class k *)
  latencies : Buf.t;
  mutable counters : counter list;
}

let create ~warmup ~classes =
  {
    table = Table.create ~rows:(1 + classes) ~cutoff:warmup;
    latencies = Buf.create ();
    counters = [];
  }

let table t = t.table
let[@inline] record_arrival t fs = Table.record_offered t.table ~row:0 fs
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

let[@inline] record_drop_counted t fs c =
  if fs.(slot_born) >= t.table.cutoff then begin
    Table.record_dropped t.table ~row:0 fs;
    c.c_hits <- c.c_hits + 1
  end

(* The run's row and the class's row, plus the exact latency sample the
   summary's percentiles need. *)
let record_completion_fs t ~fs ~klass =
  Table.record_delivered t.table ~row:0 fs;
  Table.record_delivered t.table ~row:(1 + klass) fs;
  let born = fs.(slot_born) in
  if born >= t.table.cutoff then Buf.add t.latencies (fs.(slot_now) -. born)

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
  let tb = t.table in
  let window = Float.max 0. (horizon -. tb.cutoff) in
  (* exact order statistics, selected in place: the samples' order
     carries nothing, so the buffer is reordered rather than copied *)
  let stat p =
    let b = t.latencies in
    if b.len = 0 then 0.
    else Lognic_numerics.Stats.percentile_in_place b.data ~len:b.len p
  in
  let per_class =
    List.filter_map
      (fun klass ->
        let row = 1 + klass in
        let count = Table.delivered tb row in
        if count > 0 then Some (klass, count, Table.mean_latency tb row)
        else None)
      (List.init (Table.rows tb - 1) Fun.id)
  in
  let drop_breakdown =
    List.filter_map
      (fun c -> if c.c_hits > 0 then Some (c.c_site, c.c_hits) else None)
      t.counters
    |> List.sort (fun (sa, ca) (sb, cb) ->
           match compare cb ca with 0 -> compare sa sb | c -> c)
  in
  let offered = Table.offered tb 0 in
  let delivered = Table.delivered tb 0 in
  let dropped = Table.dropped tb 0 in
  let bytes = Table.delivered_bytes tb 0 in
  {
    window;
    offered_packets = offered;
    delivered_packets = delivered;
    dropped_packets = dropped;
    delivered_bytes = bytes;
    throughput = (if window > 0. then bytes /. window else 0.);
    packet_rate =
      (if window > 0. then float_of_int delivered /. window else 0.);
    mean_latency = Table.mean_latency tb 0;
    p50_latency = stat 50.;
    p99_latency = stat 99.;
    max_latency = Table.max_latency tb 0;
    loss_rate =
      (if offered = 0 then 0.
       else float_of_int dropped /. float_of_int offered);
    per_class;
    drop_breakdown;
    latency_terms = Table.mean_terms tb 0;
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
