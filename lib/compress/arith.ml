(* Static arithmetic coding (Witten-Neal-Cleary style integer coder) —
   the third order-preserving candidate of §2.1.

   The cumulative-frequency table lists symbols in alphabetical order with
   the end-of-string symbol first, so the code maps strings to disjoint
   sub-intervals of [0,1) in lexicographic order: byte comparison of
   zero-padded code strings coincides with plaintext comparison. *)

let symbol_count = 257
let eos = 0
let sym_of_char c = Char.code c + 1

type model = {
  cum : int array; (* cum.(s) .. cum.(s+1): symbol s's slice; length 258 *)
  total : int;
}

exception Corrupt of string

let precision = 32
let top = 1 lsl precision
let half = top / 2
let quarter = top / 4
let three_quarters = 3 * quarter
let max_total = 1 lsl 16

let of_freqs (freqs : int array) : model =
  if Array.length freqs <> symbol_count then invalid_arg "Arith.of_freqs";
  (* Scale so the total stays below [max_total] while every symbol keeps a
     nonzero slice (the code must stay total). *)
  let sum = Array.fold_left ( + ) 0 freqs in
  let scale f =
    if sum <= max_total - symbol_count then max 1 f
    else max 1 (f * (max_total - symbol_count) / sum)
  in
  let cum = Array.make (symbol_count + 1) 0 in
  for s = 0 to symbol_count - 1 do
    cum.(s + 1) <- cum.(s) + scale freqs.(s)
  done;
  { cum; total = cum.(symbol_count) }

let train (values : string list) : model =
  let freqs = Array.make symbol_count 1 in
  freqs.(eos) <- max 1 (List.length values);
  List.iter
    (fun v ->
      String.iter (fun c -> let s = sym_of_char c in freqs.(s) <- freqs.(s) + 1) v)
    values;
  of_freqs freqs

let compress (m : model) (value : string) : string =
  let w = Bitio.Writer.create ~size:(String.length value / 2) () in
  let low = ref 0 and high = ref (top - 1) and pending = ref 0 in
  let emit bit =
    Bitio.Writer.add_bit w bit;
    for _ = 1 to !pending do
      Bitio.Writer.add_bit w (not bit)
    done;
    pending := 0
  in
  let encode_symbol s =
    let range = !high - !low + 1 in
    high := !low + (range * m.cum.(s + 1) / m.total) - 1;
    low := !low + (range * m.cum.(s) / m.total);
    let continue = ref true in
    while !continue do
      if !high < half then begin
        emit false;
        low := !low * 2;
        high := (!high * 2) + 1
      end
      else if !low >= half then begin
        emit true;
        low := (!low - half) * 2;
        high := ((!high - half) * 2) + 1
      end
      else if !low >= quarter && !high < three_quarters then begin
        incr pending;
        low := (!low - quarter) * 2;
        high := ((!high - quarter) * 2) + 1
      end
      else continue := false
    done
  in
  String.iter (fun c -> encode_symbol (sym_of_char c)) value;
  encode_symbol eos;
  (* Termination: two more bits pin the value inside the final interval. *)
  incr pending;
  if !low < quarter then emit false else emit true;
  Bitio.Writer.contents w

let decompress (m : model) (compressed : string) : string =
  let r = Bitio.Reader.of_string compressed in
  let next_bit () =
    if Bitio.Reader.bits_remaining r > 0 then Bitio.Reader.read_bit r else false
  in
  let value = ref 0 in
  for _ = 1 to precision do
    value := (!value * 2) lor (if next_bit () then 1 else 0)
  done;
  let low = ref 0 and high = ref (top - 1) in
  let buf = Buffer.create 16 in
  let rec decode () =
    let range = !high - !low + 1 in
    let scaled = (((!value - !low + 1) * m.total) - 1) / range in
    (* Binary search for s with cum.(s) <= scaled < cum.(s+1). *)
    let s =
      let lo = ref 0 and hi = ref (symbol_count - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if m.cum.(mid) <= scaled then lo := mid else hi := mid - 1
      done;
      !lo
    in
    high := !low + (range * m.cum.(s + 1) / m.total) - 1;
    low := !low + (range * m.cum.(s) / m.total);
    let continue = ref true in
    while !continue do
      if !high < half then begin
        low := !low * 2;
        high := (!high * 2) + 1;
        value := (!value * 2) lor (if next_bit () then 1 else 0)
      end
      else if !low >= half then begin
        low := (!low - half) * 2;
        high := ((!high - half) * 2) + 1;
        value := ((!value - half) * 2) lor (if next_bit () then 1 else 0)
      end
      else if !low >= quarter && !high < three_quarters then begin
        low := (!low - quarter) * 2;
        high := ((!high - quarter) * 2) + 1;
        value := ((!value - quarter) * 2) lor (if next_bit () then 1 else 0)
      end
      else continue := false
    done;
    if s <> eos then begin
      Buffer.add_char buf (Char.chr (s - 1));
      decode ()
    end
  in
  decode ();
  Buffer.contents buf

let serialize_model (m : model) : string =
  let buf = Buffer.create (2 * symbol_count) in
  for s = 0 to symbol_count - 1 do
    Buffer.add_uint16_be buf (m.cum.(s + 1) - m.cum.(s))
  done;
  Buffer.contents buf

let deserialize_model (s : string) : model =
  if String.length s <> 2 * symbol_count then raise (Corrupt "bad model size");
  let freqs =
    Array.init symbol_count (fun i ->
        (Char.code s.[2 * i] lsl 8) lor Char.code s.[(2 * i) + 1])
  in
  (* Frequencies are already scaled; rebuild the cumulative table as-is. *)
  let cum = Array.make (symbol_count + 1) 0 in
  Array.iteri (fun i f -> cum.(i + 1) <- cum.(i) + f) freqs;
  { cum; total = cum.(symbol_count) }

let model_size m = String.length (serialize_model m)
