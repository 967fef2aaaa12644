type medium = Cmi | Io_interconnect

type t = {
  name : string;
  peak_ops : float;
  medium : medium;
  core_issue_ops : float;
  issue_overhead : float;
}

let mops = Lognic.Units.mops

(* Per-core issue rates follow Fig 9's knees: each core splits evenly
   between submission (IP1) and completion (IP3) work, so an engine with
   peak P that needs n cores to saturate sees a dedicated core issue at
   2P/n calls/s. The issue rate is inclusive of the per-call preparation
   overhead O_IP1 (that is what differentiates the engines); O_IP1
   itself is also exposed for the latency model's transfer-overhead
   term, taken as 35% of the per-call budget. *)
let make name peak medium cores_to_saturate =
  let peak_ops = peak *. mops in
  let core_issue_ops = 2. *. peak_ops /. cores_to_saturate in
  {
    name;
    peak_ops;
    medium;
    core_issue_ops;
    issue_overhead = 1. /. core_issue_ops *. 0.35;
  }

let crc = make "CRC" 2.8 Cmi 8.
let des3 = make "3DES" 2.2 Cmi 9.
let md5 = make "MD5" 1.8 Cmi 9.
let aes = make "AES" 2.0 Cmi 9.
let sha1 = make "SHA-1" 1.5 Cmi 9.
let sms4 = make "SMS4" 1.3 Cmi 10.
let kasumi = make "KASUMI" 1.76 Cmi 8.
let hfa = make "HFA" 1.18 Io_interconnect 11.
