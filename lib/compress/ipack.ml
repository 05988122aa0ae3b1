(* Order-preserving packing for numeric containers (<type, pe> containers
   with an elementary numeric type, §1.1).

   Two variants, selected at training time by validating every value:
   - [Int]: canonical non-negative integers (no leading zeros),
     packed as 8-byte big-endian;
   - [Decimal k]: fixed-point with exactly k fraction digits, packed as
     the scaled integer.
   Both make byte comparison of packed values coincide with numeric
   comparison, and round-trip the exact source text. *)

type variant = Int | Decimal of int

type model = { variant : variant }

exception Unsupported of string
exception Corrupt of string

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let canonical_int s = is_digits s && (String.length s = 1 || s.[0] <> '0')

(* "123.45" -> Some ("123", "45"); "123" -> Some ("123", "") *)
let split_decimal s =
  match String.index_opt s '.' with
  | None -> if canonical_int s then Some (s, "") else None
  | Some i ->
    let whole = String.sub s 0 i in
    let frac = String.sub s (i + 1) (String.length s - i - 1) in
    if canonical_int whole && is_digits frac then Some (whole, frac) else None

let train (values : string list) : model =
  match values with
  | [] -> { variant = Int }
  | _ ->
    let frac_digits v =
      match split_decimal v with
      | None -> raise (Unsupported (Printf.sprintf "not numeric: %S" v))
      | Some (_, f) -> String.length f
    in
    let ks = List.map frac_digits values in
    let k = List.fold_left max 0 ks in
    if k = 0 then { variant = Int }
    else if List.for_all (fun k' -> k' = k) ks then { variant = Decimal k }
    else raise (Unsupported "mixed fraction-digit counts")

let pow10 k =
  let rec go acc k = if k = 0 then acc else go (acc * 10) (k - 1) in
  go 1 k

(* Variable-length order-preserving packing: a length byte followed by
   the value's significant big-endian bytes. Comparing (length, bytes)
   lexicographically compares the numbers: fewer significant bytes means
   a strictly smaller value. *)
let pack_u63 (v : int) : string =
  if v < 0 then raise (Corrupt "negative value");
  let rec nbytes n acc = if n = 0 then acc else nbytes (n lsr 8) (acc + 1) in
  let len = nbytes v 0 in
  String.init (len + 1) (fun i ->
      if i = 0 then Char.chr len else Char.chr ((v lsr (8 * (len - i))) land 0xff))

let unpack_u63 (s : string) : int =
  if String.length s = 0 || String.length s <> Char.code s.[0] + 1 then
    raise (Corrupt "bad packed width");
  let v = ref 0 in
  for i = 1 to String.length s - 1 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  !v

let compress (m : model) (value : string) : string =
  match split_decimal value with
  | None -> raise (Unsupported (Printf.sprintf "not numeric: %S" value))
  | Some (whole, frac) -> (
    match m.variant with
    | Int ->
      if frac <> "" then raise (Unsupported "fraction in integer container");
      pack_u63 (int_of_string whole)
    | Decimal k ->
      if String.length frac <> k then raise (Unsupported "fraction digits mismatch");
      pack_u63 ((int_of_string whole * pow10 k) + int_of_string frac))

(* The [digits] low decimal digits of [v] >= 0, most significant
   first, zero-padded. *)
let add_digits buf v digits =
  let p = ref (pow10 (digits - 1)) and v = ref v in
  for _ = 1 to digits do
    Buffer.add_char buf (Char.unsafe_chr (48 + (!v / !p)));
    v := !v mod !p;
    p := !p / 10
  done

let rec digit_count v = if v < 10 then 1 else 1 + digit_count (v / 10)

(* A value is formatted straight into the buffer, digit by digit: what
   [string_of_int v] and [Printf.sprintf "%d.%0*d" (v / p) k (v mod p)]
   print, without formatting through a string. *)
let decompress_into (m : model) (packed : string) (buf : Buffer.t) : unit =
  let v = unpack_u63 packed in
  match m.variant with
  | Int -> add_digits buf v (digit_count v)
  | Decimal k ->
    let p = pow10 k in
    let whole = v / p in
    add_digits buf whole (digit_count whole);
    Buffer.add_char buf '.';
    add_digits buf (v mod p) k

let decompress (m : model) (packed : string) : string =
  let buf = Buffer.create 24 in
  decompress_into m packed buf;
  Buffer.contents buf

(* Compressed-domain comparison against an arbitrary float constant: the
   query processor turns [v < 40.5] into a code-range scan using these
   bounds. All stored values are non-negative, so negative constants clamp
   to the bottom of the code space. *)

let scale_of m = match m.variant with Int -> 1 | Decimal k -> pow10 k

(** Smallest packed code of a stored value that is >= [f] (for >=/< splits
    use [`Ceil]); largest-or-equal scaled floor for [`Floor]. *)
let pack_bound (m : model) ~(dir : [ `Ceil | `Floor ]) (f : float) : string =
  let scaled = f *. float_of_int (scale_of m) in
  let v = match dir with `Ceil -> Float.ceil scaled | `Floor -> Float.floor scaled in
  let v = if v < 0.0 then 0.0 else v in
  pack_u63 (int_of_float v)

(** Packed code equal to [f], when [f] is exactly representable in this
    container's scale; [None] means no stored value can equal [f]. *)
let pack_exact (m : model) (f : float) : string option =
  let scaled = f *. float_of_int (scale_of m) in
  if Float.is_integer scaled && scaled >= 0.0 then Some (pack_u63 (int_of_float scaled))
  else None

(* ------------------------------------------------------------------ *)
(* Delta + varint sequence packing                                     *)
(* ------------------------------------------------------------------ *)

(* Zigzag mapping: small-magnitude deltas of either sign become small
   varints (0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...). *)
let zigzag (d : int) : int = if d >= 0 then 2 * d else (-2 * d) - 1

let unzigzag (z : int) : int = if z land 1 = 0 then z / 2 else -((z + 1) / 2)

let add_deltas buf len (get : int -> int) : unit =
  Rle.add_varint buf len;
  let prev = ref 0 in
  for i = 0 to len - 1 do
    let x = get i in
    Rle.add_varint buf (zigzag (x - !prev));
    prev := x
  done

let read_deltas (s : string) (pos : int) : int array * int =
  let (n, pos) = Rle.read_varint s pos in
  let pos = ref pos in
  let prev = ref 0 in
  let xs =
    Array.init n (fun _ ->
        let (z, p) = Rle.read_varint s !pos in
        pos := p;
        prev := !prev + unzigzag z;
        !prev)
  in
  (xs, !pos)

let serialize_model (m : model) : string =
  match m.variant with
  | Int -> "\000"
  | Decimal k -> Printf.sprintf "\001%c" (Char.chr k)

let deserialize_model (s : string) : model =
  match s.[0] with
  | '\000' -> { variant = Int }
  | '\001' -> { variant = Decimal (Char.code s.[1]) }
  | _ -> raise (Corrupt "bad numeric model")

let model_size m = String.length (serialize_model m)
