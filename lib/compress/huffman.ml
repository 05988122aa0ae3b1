(* Classical Huffman coding (Huffman 1952) over bytes, with an explicit
   end-of-string symbol so that individually compressed values are
   self-delimiting.

   Codes are made canonical, which lets the source model be serialized as
   a bare array of code lengths. With a shared source model:
   - equality of plaintexts coincides with equality of the compressed byte
     strings ([eq] holds in the compressed domain);
   - the compressed bits of a plaintext prefix are a bit-prefix of the
     compressed value ([wild], i.e. prefix-matching, holds);
   - lexicographic order is NOT preserved ([ineq] does not hold). *)

let symbol_count = 257 (* 256 bytes + end-of-string *)
let eos = 256

type model = {
  lengths : int array; (* code length per symbol; 0 = absent *)
  codes : int array;   (* canonical code per symbol *)
  (* Canonical decoding by code length [l]: the codes of length [l] are
     [first_code.(l) ..] and their symbols [symbols.(first_index.(l)) ..],
     [first_index.(l + 1) - first_index.(l)] of them. *)
  first_code : int array;
  first_index : int array;
  symbols : int array; (* symbols sorted by (length, symbol) *)
  max_len : int;
  (* The decode table, a pure function of [lengths]: built on the first
     decode and published here; [[||]] until then. Domains that race to
     build it build the same table. *)
  table : int array Atomic.t;
}

exception Corrupt of string

(* The longest code a model may have: the decoder's accumulator then
   holds at least a model's longest code after a refill (at most 56 + 7
   bits), so every code resolves from it. *)
let max_code_len = 56

(* ------------------------------------------------------------------ *)
(* Model construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Build code lengths with the classic two-queue method over symbols sorted
   by frequency; a binary heap is unnecessary at alphabet size 257. The
   nodes live in arrays: [0 .. m-1] are the present symbols, stably
   sorted by frequency (the leaf queue), and [m ..] the merged nodes in
   the order they are made (the merged queue). Each step pops the
   lighter head, the leaf on ties. *)
let code_lengths (freqs : int array) : int array =
  let lens = Array.make symbol_count 0 in
  let order =
    Array.of_seq (Seq.filter (fun s -> freqs.(s) > 0) (Seq.init (Array.length freqs) Fun.id))
  in
  let m = Array.length order in
  if m = 0 then invalid_arg "Huffman.code_lengths: empty frequency table";
  if m = 1 then lens.(order.(0)) <- 1
  else begin
    Array.stable_sort (fun a b -> Int.compare freqs.(a) freqs.(b)) order;
    let weight = Array.make ((2 * m) - 1) 0 in
    Array.iteri (fun k s -> weight.(k) <- freqs.(s)) order;
    let left = Array.make (m - 1) 0 and right = Array.make (m - 1) 0 in
    let leaf = ref 0 and merged = ref m and next = ref m in
    let take_min () =
      if !leaf < m && (!merged = !next || weight.(!leaf) <= weight.(!merged)) then begin
        incr leaf;
        !leaf - 1
      end
      else begin
        incr merged;
        !merged - 1
      end
    in
    while !next < (2 * m) - 1 do
      let a = take_min () in
      let b = take_min () in
      weight.(!next) <- weight.(a) + weight.(b);
      left.(!next - m) <- a;
      right.(!next - m) <- b;
      incr next
    done;
    (* the root is the last node made, and every node is made after its
       children, so depths fill in from the root down *)
    let depth = Array.make ((2 * m) - 1) 0 in
    for node = (2 * m) - 2 downto m do
      let d = depth.(node) + 1 in
      depth.(left.(node - m)) <- d;
      depth.(right.(node - m)) <- d
    done;
    Array.iteri (fun k s -> lens.(s) <- max 1 depth.(k)) order
  end;
  lens

(* Turn code lengths into canonical codes and decoding tables: symbols
   ordered by (length, symbol), counted by length, then placed in one
   pass over the symbols. *)
let of_lengths (lengths : int array) : model =
  if Array.length lengths <> symbol_count then
    invalid_arg "Huffman.of_lengths: bad array size";
  if Array.exists (fun l -> l > max_code_len) lengths then
    raise (Corrupt "code length exceeds the decoder's accumulator");
  let max_len = Array.fold_left max 0 lengths in
  let count = Array.make (max_len + 2) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lengths;
  let codes = Array.make symbol_count 0 in
  let first_code = Array.make (max_len + 2) 0 in
  let first_index = Array.make (max_len + 2) 0 in
  (* Canonical assignment: shorter codes first, numerically increasing. *)
  let code = ref 0 and idx = ref 0 in
  for l = 1 to max_len do
    first_code.(l) <- !code;
    first_index.(l) <- !idx;
    code := !code + count.(l);
    idx := !idx + count.(l);
    (* Kraft: the codes of length [l] must fit in [l] bits *)
    if !code > 1 lsl l then raise (Corrupt "over-subscribed code lengths");
    code := !code lsl 1
  done;
  first_index.(max_len + 1) <- !idx;
  let symbols = Array.make !idx 0 in
  let next = Array.copy first_index in
  Array.iteri
    (fun s l ->
      if l > 0 then begin
        let k = next.(l) in
        next.(l) <- k + 1;
        symbols.(k) <- s;
        codes.(s) <- first_code.(l) + (k - first_index.(l))
      end)
    lengths;
  { lengths; codes; first_code; first_index; symbols; max_len; table = Atomic.make [||] }

(** Train a model on a list of strings. Every byte value is given a floor
    frequency of 1 so the code stays total (values unseen at training time
    can still be compressed). *)
let train (values : string list) : model =
  let freqs = Array.make symbol_count 1 in
  freqs.(eos) <- max 1 (List.length values);
  List.iter (fun v -> String.iter (fun c -> let i = Char.code c in freqs.(i) <- freqs.(i) + 1) v) values;
  of_lengths (code_lengths freqs)

(* ------------------------------------------------------------------ *)
(* Model serialization (the "source model" whose size the cost model
   accounts for)                                                       *)
(* ------------------------------------------------------------------ *)

let serialize_model (m : model) : string =
  let buf = Buffer.create symbol_count in
  Array.iter (fun l ->
      if l > 255 then raise (Corrupt "code length overflow");
      Buffer.add_char buf (Char.chr l))
    m.lengths;
  Buffer.contents buf

let deserialize_model (s : string) : model =
  if String.length s <> symbol_count then raise (Corrupt "bad model size");
  of_lengths (Array.init symbol_count (fun i -> Char.code s.[i]))

let model_size m = String.length (serialize_model m)

(* ------------------------------------------------------------------ *)
(* Encoding / decoding                                                 *)
(* ------------------------------------------------------------------ *)

let add_symbol m w s =
  let l = m.lengths.(s) in
  if l = 0 then raise (Corrupt "symbol absent from model");
  Bitio.Writer.add_bits w m.codes.(s) l

(** Compress a single value; the result is zero-padded to a byte boundary
    and terminated by the end-of-string symbol. *)
let compress (m : model) (value : string) : string =
  let w = Bitio.Writer.create ~size:(String.length value) () in
  String.iter (fun c -> add_symbol m w (Char.code c)) value;
  add_symbol m w eos;
  Bitio.Writer.contents w

(* Table-driven decoding. The table maps the next [table_bits] bits of
   the stream to what they decode to: up to two symbols and the bits
   each uses. An entry packs [len1] (bits 0-3), [len1 + len2] (bits 4-7;
   equal to [len1] for one symbol), [sym1] (bits 8-16) and [sym2] (bits
   17-25). Entry 0 means no code of at most [table_bits] bits starts
   the window: the code is longer, or invalid. *)
let table_bits = 12

let table_mask = (1 lsl table_bits) - 1

let entry ~len1 ~len2 ~sym1 ~sym2 = len1 lor ((len1 + len2) lsl 4) lor (sym1 lsl 8) lor (sym2 lsl 17)

let build_table m =
  let t = Array.make (1 lsl table_bits) 0 in
  for k = 0 to Array.length m.symbols - 1 do
    let s = m.symbols.(k) in
    let l = m.lengths.(s) in
    if l <= table_bits then begin
      let lo = m.codes.(s) lsl (table_bits - l) in
      Array.fill t lo (1 lsl (table_bits - l)) (entry ~len1:l ~len2:0 ~sym1:s ~sym2:0)
    end
  done;
  (* A second symbol joins the first when its code fits in the bits
     left; nothing follows the end-of-string symbol. Pairing keeps an
     entry's first-symbol fields, so entries are read as single symbols
     while the table fills in place. *)
  Array.iteri
    (fun w e ->
      let len1 = e land 15 and sym1 = (e lsr 8) land 0x1ff in
      if e <> 0 && sym1 <> eos then begin
        let e2 = t.((w lsl len1) land table_mask) in
        let len2 = e2 land 15 in
        if e2 <> 0 && len1 + len2 <= table_bits then
          t.(w) <- entry ~len1 ~len2 ~sym1 ~sym2:((e2 lsr 8) land 0x1ff)
      end)
    t;
  t

let table m =
  let t = Atomic.get m.table in
  if Array.length t > 0 then t
  else begin
    let t = build_table m in
    Atomic.set m.table t;
    t
  end

let truncated () = raise (Corrupt "value ends inside a code")

(* The end-of-string symbol ends a value but has no place in a raw stream. *)
let at_eos ~count = if count >= 0 then raise (Corrupt "end-of-string in a raw stream")

(* A code longer than [table_bits], resolved from the [nbits] valid low
   bits of [acc] by the canonical search; returns [sym lsl 6 lor len]. *)
let long_code m acc nbits =
  let rec go len =
    if len > m.max_len then raise (Corrupt "invalid code")
    else if len > nbits then truncated ()
    else begin
      let k = ((acc lsr (nbits - len)) land ((1 lsl len) - 1)) - m.first_code.(len) in
      if k >= 0 && k < m.first_index.(len + 1) - m.first_index.(len) then
        (m.symbols.(m.first_index.(len) + k) lsl 6) lor len
      else go (len + 1)
    end
  in
  go (table_bits + 1)

(* ALM's 48-bit read, repeated here: a call into another module is not
   inlined when modules compile opaquely (dune's default profile), and
   the call costs this loop about a third of its speed. *)
let get48 s pos =
  (String.get_uint16_be s pos lsl 32) lor (Int32.to_int (String.get_int32_be s (pos + 2)) land 0xffff_ffff)

let scratch = Domain.DLS.new_key (fun () -> Bytes.create 4096)

(* The one decode loop: symbols of [src] into [out] until the
   end-of-string symbol (value mode, [count] < 0) or until [count]
   symbols (raw mode, where the end-of-string symbol is corrupt). The
   accumulator [acc] holds [nbits] unread bits in its low end. A symbol
   is decoded once it holds the model's longest code, or the input is
   used up; until then it is refilled, 48 bits at a time while at most
   15 bits are unread and 6 bytes are left (which fits in 63 bits, as
   in ALM's decoder), else a byte at a time. Symbols are written into a
   buffer of the decoding domain, and the value is appended from it to
   [out] once whole; a value that outgrows it continues in a fresh one
   twice as large, which is not kept. *)
let decode m src ~count out =
  let t = table m in
  let n = String.length src and need = m.max_len in
  let rec go b pos acc nbits left dst =
    if left = 0 then (b, dst)
    else if nbits < need && pos < n then begin
      if nbits <= 15 && pos + 6 <= n then
        go b (pos + 6) ((acc lsl 48) lor get48 src pos) (nbits + 48) left dst
      else go b (pos + 1) ((acc lsl 8) lor Char.code (String.unsafe_get src pos)) (nbits + 8) left dst
    end
    else if dst + 2 > Bytes.length b then begin
      let b' = Bytes.create (2 * Bytes.length b) in
      Bytes.blit b 0 b' 0 dst;
      go b' pos acc nbits left dst
    end
    else begin
      let w =
        if nbits >= table_bits then (acc lsr (nbits - table_bits)) land table_mask
        else (acc lsl (table_bits - nbits)) land table_mask
      in
      let e = Array.unsafe_get t w in
      if e = 0 then begin
        let r = long_code m acc nbits in
        let sym = r lsr 6 in
        if sym = eos then (at_eos ~count; (b, dst))
        else begin
          Bytes.unsafe_set b dst (Char.unsafe_chr sym);
          go b pos acc (nbits - (r land 63)) (left - 1) (dst + 1)
        end
      end
      else begin
        let len1 = e land 15 and sym1 = (e lsr 8) land 0x1ff in
        if len1 > nbits then truncated ();
        if sym1 = eos then (at_eos ~count; (b, dst))
        else begin
          Bytes.unsafe_set b dst (Char.unsafe_chr sym1);
          let len = (e lsr 4) land 15 in
          if len = len1 || len > nbits || left = 1 then
            go b pos acc (nbits - len1) (left - 1) (dst + 1)
          else begin
            let sym2 = e lsr 17 in
            if sym2 = eos then (at_eos ~count; (b, dst + 1))
            else begin
              Bytes.unsafe_set b (dst + 1) (Char.unsafe_chr sym2);
              go b pos acc (nbits - len) (left - 2) (dst + 2)
            end
          end
        end
      end
    end
  in
  let b, dst = go (Domain.DLS.get scratch) 0 0 0 count 0 in
  Buffer.add_subbytes out b 0 dst

let decompress_into (m : model) (compressed : string) (out : Buffer.t) : unit =
  decode m compressed ~count:(-1) out

let decompress (m : model) (compressed : string) : string =
  let out = Buffer.create (2 * String.length compressed) in
  decompress_into m compressed out;
  Buffer.contents out

(* Raw-stream mode: encode a byte sequence of externally known length,
   without the end-of-string symbol (used by the bzip-like pipeline). *)

let train_raw (data : string) : model =
  let freqs = Array.make symbol_count 0 in
  String.iter (fun c -> freqs.(Char.code c) <- freqs.(Char.code c) + 1) data;
  if String.length data = 0 then freqs.(0) <- 1;
  of_lengths (code_lengths freqs)

let compress_raw (m : model) (data : string) : string =
  let w = Bitio.Writer.create ~size:(String.length data) () in
  String.iter (fun c -> add_symbol m w (Char.code c)) data;
  Bitio.Writer.contents w

let decompress_raw (m : model) ~(count : int) (compressed : string) : string =
  if count < 0 then invalid_arg "Huffman.decompress_raw: negative count";
  let out = Buffer.create count in
  decode m compressed ~count out;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Compressed-domain operations                                        *)
(* ------------------------------------------------------------------ *)

(** Equality in the compressed domain (valid when both sides were
    compressed with the same model). *)
let equal_compressed (a : string) (b : string) = String.equal a b

(** Bits of a plaintext prefix, not EOS-terminated: used for wildcard
    (prefix) matching in the compressed domain. *)
let compress_prefix (m : model) (prefix : string) : string * int =
  let w = Bitio.Writer.create ~size:(String.length prefix) () in
  String.iter (fun c -> add_symbol m w (Char.code c)) prefix;
  (Bitio.Writer.contents w, Bitio.Writer.bit_length w)

(** Does [compressed] start with the given compressed prefix bits? *)
let matches_prefix ~(prefix_bits : string * int) (compressed : string) : bool =
  let (pbytes, pbits) = prefix_bits in
  let full = pbits / 8 in
  let rem = pbits mod 8 in
  String.length compressed * 8 >= pbits
  && String.sub compressed 0 full = String.sub pbytes 0 full
  && (rem = 0
      ||
      let mask = 0xff lsl (8 - rem) land 0xff in
      Char.code compressed.[full] land mask = Char.code pbytes.[full] land mask)
