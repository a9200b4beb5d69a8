(* Compact binary codec: the primitives of every binary format in the
   project (checkpoint cuts and journal records).

   Integers are LEB128 varints (zigzag for signed values), floats are
   their raw IEEE-754 bits, strings and lists are length-prefixed.  A
   metrics histogram (64 bucket counts, four floats) packs into a
   fraction of its sexp rendering, and a float round-trips bit-exactly
   without any text formatting. *)

exception Corrupt of string

(* --- encoder ------------------------------------------------------ *)

type enc = Buffer.t

let encoder () = Buffer.create 256
let contents = Buffer.contents

let put_byte b n = Buffer.add_char b (Char.chr (n land 0xff))

(* LEB128 over the raw word bits: [n] is read as an unsigned
   [Sys.int_size]-bit pattern (logical shifts), so the zigzag of
   [min_int] — whose pattern has the top bit set — still encodes. *)
let put_word_bits b n =
  let rec go n =
    if n land lnot 0x7f = 0 then put_byte b n
    else begin
      put_byte b (0x80 lor (n land 0x7f));
      go (n lsr 7)
    end
  in
  go n

(* Unsigned LEB128. *)
let put_uint b n =
  if n < 0 then invalid_arg "Wire.put_uint: negative";
  put_word_bits b n

(* Zigzag-mapped signed varint: small magnitudes of either sign stay
   one byte. *)
let put_int b n = put_word_bits b ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let put_float b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    put_byte b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
  done

let put_string b s =
  put_uint b (String.length s);
  Buffer.add_string b s

let put_bool b v = put_byte b (if v then 1 else 0)

let put_list b f l =
  put_uint b (List.length l);
  List.iter (f b) l

let put_option b f = function
  | None -> put_byte b 0
  | Some v ->
      put_byte b 1;
      f b v

(* --- decoder ------------------------------------------------------ *)

type dec = { data : string; mutable pos : int }

let decoder data = { data; pos = 0 }
let remaining d = String.length d.data - d.pos
let corrupt msg = raise (Corrupt msg)

let get_byte d =
  if d.pos >= String.length d.data then corrupt "truncated record";
  let c = Char.code d.data.[d.pos] in
  d.pos <- d.pos + 1;
  c

let get_uint d =
  let rec go shift acc =
    if shift > Sys.int_size then corrupt "varint overflow";
    let byte = get_byte d in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_int d =
  let z = get_uint d in
  (z lsr 1) lxor (-(z land 1))

let get_float d =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (get_byte d)) (8 * i))
  done;
  Int64.float_of_bits !bits

let get_string d =
  let n = get_uint d in
  (* A crafted varint can decode to a negative word; reject it here so
     corruption surfaces as [Corrupt], never [Invalid_argument]. *)
  if n < 0 || n > remaining d then corrupt "truncated string";
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  s

let get_bool d =
  match get_byte d with
  | 0 -> false
  | 1 -> true
  | b -> corrupt (Printf.sprintf "bad boolean byte %d" b)

let get_option d f =
  match get_byte d with
  | 0 -> None
  | 1 -> Some (f d)
  | t -> corrupt (Printf.sprintf "bad option tag %d" t)

(* --- metrics ------------------------------------------------------- *)

let put_dumped b = function
  | Metrics.D_counter n ->
      put_byte b 0;
      put_int b n
  | Metrics.D_gauge v ->
      put_byte b 1;
      put_float b v
  | Metrics.D_histogram h ->
      put_byte b 2;
      put_int b h.Metrics.d_n;
      put_float b h.Metrics.d_sum;
      put_float b h.Metrics.d_vmin;
      put_float b h.Metrics.d_vmax;
      put_uint b (Array.length h.Metrics.d_counts);
      Array.iter (put_int b) h.Metrics.d_counts

let get_dumped d =
  match get_byte d with
  | 0 -> Metrics.D_counter (get_int d)
  | 1 -> Metrics.D_gauge (get_float d)
  | 2 ->
      let d_n = get_int d in
      let d_sum = get_float d in
      let d_vmin = get_float d in
      let d_vmax = get_float d in
      let buckets = get_uint d in
      if buckets < 0 || buckets > remaining d then
        corrupt "truncated histogram";
      let d_counts = Array.init buckets (fun _ -> get_int d) in
      Metrics.D_histogram { d_n; d_sum; d_vmin; d_vmax; d_counts }
  | t -> corrupt (Printf.sprintf "unknown metric tag %d" t)

(* Explicit accumulation: each entry costs at least one byte, so a
   lying count is caught before any allocation sized by it — and the
   list is built strictly left to right, which the stateful decoder
   requires. *)
let get_list d f =
  let n = get_uint d in
  if n < 0 || n > remaining d then corrupt "truncated list";
  let rec go acc k = if k = 0 then List.rev acc else go (f d :: acc) (k - 1) in
  go [] n
