let suffixes =
  (* Longest-match-first table of suffix -> multiplier (to SI base). *)
  [
    ("gbps", 1e9 /. 8.);
    ("mbps", 1e6 /. 8.);
    ("kbps", 1e3 /. 8.);
    ("bps", 1. /. 8.);
    ("gb/s", 1e9);
    ("mb/s", 1e6);
    ("kb/s", 1e3);
    ("b/s", 1.);
    ("kib", 1024.);
    ("mib", 1024. *. 1024.);
    ("gib", 1024. *. 1024. *. 1024.);
    ("kb", 1e3);
    ("mb", 1e6);
    ("gb", 1e9);
    ("b", 1.);
    ("ns", 1e-9);
    ("us", 1e-6);
    ("ms", 1e-3);
    ("s", 1.);
    ("kops", 1e3);
    ("mops", 1e6);
    ("ops", 1.);
    (* bare SI count suffixes (flow populations, cache entries); listed
       last so every unit-bearing suffix above wins the longest match *)
    ("k", 1e3);
    ("m", 1e6);
    ("g", 1e9);
  ]

let parse text =
  let text = String.trim text in
  if text = "" then Error "empty quantity"
  else begin
    let lower = String.lowercase_ascii text in
    let matching =
      List.find_opt
        (fun (suffix, _) ->
          String.length lower > String.length suffix
          && Filename.check_suffix lower suffix
          &&
          (* the char before the suffix — skipping optional whitespace, so
             both "10Gbps" and "10 Gbps" parse — must be part of the number *)
          let i = ref (String.length lower - String.length suffix - 1) in
          while !i > 0 && (lower.[!i] = ' ' || lower.[!i] = '\t') do
            decr i
          done;
          let c = lower.[!i] in
          (c >= '0' && c <= '9') || c = '.')
        suffixes
    in
    let number_part, multiplier =
      match matching with
      | Some (suffix, m) ->
        (String.sub text 0 (String.length text - String.length suffix), m)
      | None -> (text, 1.)
    in
    match float_of_string_opt (String.trim number_part) with
    | Some v when Float.is_finite (v *. multiplier) -> Ok (v *. multiplier)
    | Some _ -> Error (Printf.sprintf "quantity %S is not finite" text)
    | None -> Error (Printf.sprintf "cannot parse quantity %S" text)
  end

let print_with units v =
  (* only commit to a rendering that parses back to exactly [v]: a
     magnitude like 1500 B is 1.46484375 KiB, which %g truncates to
     1.46484 — the round trip would silently lose bytes. Fall through
     to a smaller unit (whose magnitude is exact more often) and, as a
     last resort, widen the precision of the bare number. Ulp-level
     slack keeps natural spellings like 5us, where magnitude *
     multiplier lands one rounding away from the original literal. *)
  let exact ~divisor s =
    Float.abs ((float_of_string s *. divisor) -. v) <= Float.abs v *. 1e-15
  in
  let rec pick = function
    | [] ->
      let s = Printf.sprintf "%g" v in
      if exact ~divisor:1. s then s
      else
        let s = Printf.sprintf "%.12g" v in
        if exact ~divisor:1. s then s else Printf.sprintf "%.17g" v
    | (threshold, divisor, suffix) :: rest ->
      if abs_float v >= threshold then
        let s = Printf.sprintf "%g" (v /. divisor) in
        if exact ~divisor s then s ^ suffix else pick rest
      else pick rest
  in
  pick units

let print_rate v =
  print_with
    [
      (1e9 /. 8., 1e9 /. 8., "Gbps");
      (1e6 /. 8., 1e6 /. 8., "Mbps");
      (1., 1. /. 8., "bps");
    ]
    v
