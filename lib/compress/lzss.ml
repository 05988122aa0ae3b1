(* LZSS (LZ77 family) with a 4 KiB window and hash-chain match finder —
   stands in for the gzip second pass of the XMill baseline, and is the
   optional second stage of container block payloads ({!Codec.encode_block}).

   Format: varint(plaintext length), then MSB-first bit tokens (written
   through {!Bitio}, described at [decompress_at]), zero-padded to a
   byte. *)

let window_bits = 12
let window = 1 lsl window_bits
let min_match = 3
let max_match = min_match + 15 (* 4-bit length field *)

(* The hash of the 3 bytes at [i]. *)
let hash_bits = 14

let hash data i =
  (Char.code (String.unsafe_get data i) lsl 10)
  lxor (Char.code (String.unsafe_get data (i + 1)) lsl 5)
  lxor Char.code (String.unsafe_get data (i + 2))
  land ((1 lsl hash_bits) - 1)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let get t i = Int32.to_int (get32u t (4 * i))
let set t i v = set32u t (4 * i) (Int32.of_int v)

(* Positions are inserted in increasing order, every [i] with
   [i + min_match <= n]. [head] (per hash, the latest position) and
   [prev] (per position, the one before it with its hash, or -1) are
   int32 cells that are not initialised: a [head] cell is trusted only
   when it holds an inserted position with that hash, which it does
   once any position with that hash was inserted, and a [prev] cell is
   written when its position is inserted, before it is read. *)
let compress (data : string) : string =
  let n = String.length data in
  let w = Bitio.Writer.create ~size:n () in
  let head = Bytes.create (4 lsl hash_bits) and prev = Bytes.create (4 * n) in
  (* the latest position before [i] whose hash is [h], or -1 *)
  let latest h i =
    let p = get head h in
    if p >= 0 && p < i && hash data p = h then p else -1
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash data i in
      set prev i (latest h i);
      set head h i
    end
  in
  (* The longest match for [i], once inserted, among the 32 latest
     positions before it with its hash inside the window, the latest on
     ties; [best_pos] is set when the length returned is at least
     [min_match]. *)
  let best_pos = ref (-1) in
  let find_match i =
    if i + min_match > n then 0
    else begin
      let limit = max 0 (i - window) in
      let best_len = ref 0 in
      let cand = ref (get prev i) in
      let tries = ref 32 in
      let max_here = min max_match (n - i) in
      while !cand >= limit && !tries > 0 do
        let c = !cand in
        let len = ref 0 in
        while
          !len < max_here && String.unsafe_get data (c + !len) = String.unsafe_get data (i + !len)
        do
          incr len
        done;
        if !len > !best_len then begin
          best_len := !len;
          best_pos := c
        end;
        cand := get prev c;
        decr tries
      done;
      !best_len
    end
  in
  let header = Buffer.create 8 in
  Rle.add_varint header n;
  let i = ref 0 in
  while !i < n do
    insert !i;
    let len = find_match !i in
    if len >= min_match then begin
      (* a 0 flag, the 12-bit distance - 1 and the 4-bit length - min_match *)
      Bitio.Writer.add_bits w ((((!i - !best_pos - 1) lsl 4) lor (len - min_match))) 17;
      for j = !i + 1 to !i + len - 1 do
        insert j
      done;
      i := !i + len
    end
    else begin
      (* a 1 flag and the literal *)
      Bitio.Writer.add_bits w (0x100 lor Char.code (String.unsafe_get data !i)) 9;
      incr i
    end
  done;
  Buffer.contents header ^ Bitio.Writer.contents w

let fail what = failwith ("Lzss: " ^ what)

(* The stream after the varint length is a run of MSB-first tokens: a
   1 flag then an 8-bit literal, or a 0 flag then a 12-bit distance - 1
   and a 4-bit length - min_match. The decoder keeps up to 24 unread
   bits in a local accumulator, refilled a byte at a time, so a token
   costs one refill check and two shifts; bits above the unread ones
   are garbage (they fall off the top of the int) and are masked away
   on extraction. Output goes straight into a [Bytes] of the declared
   length, and every token is bounds-checked against it, so damage
   surfaces as [Failure] rather than a short, long or out-of-range
   result. *)
let decompress_at (data : string) (off : int) : string =
  let len = String.length data in
  let header_end = ref off in
  let n = Rle.take_varint data header_end in
  (* a separate cursor the hot loop can keep in a register *)
  let src = ref !header_end in
  (* a token yields at most max_match bytes per 17 bits *)
  if n < 0 || n > ((len - !src) * 8 / 17 * max_match) + max_match then
    fail "declared length exceeds the stream";
  let out = Bytes.create n in
  let acc = ref 0 and nbits = ref 0 and o = ref 0 in
  while !o < n do
    while !nbits < 17 && !src < len do
      acc := (!acc lsl 8) lor Char.code (String.unsafe_get data !src);
      incr src;
      nbits := !nbits + 8
    done;
    let nb = !nbits in
    if nb < 9 then fail "truncated stream";
    if (!acc lsr (nb - 1)) land 1 = 1 then begin
      Bytes.unsafe_set out !o (Char.unsafe_chr ((!acc lsr (nb - 9)) land 0xff));
      nbits := nb - 9;
      incr o
    end
    else begin
      if nb < 17 then fail "truncated stream";
      let v = !acc lsr (nb - 17) in
      let dist = ((v lsr 4) land (window - 1)) + 1 in
      let mlen = (v land 15) + min_match in
      nbits := nb - 17;
      let dst = !o in
      let start = dst - dist in
      if start < 0 then fail "back-reference before the start of the output";
      if dst + mlen > n then fail "match runs past the declared length";
      (* byte by byte: an overlapping match (dist < mlen) repeats *)
      for j = 0 to mlen - 1 do
        Bytes.unsafe_set out (dst + j) (Bytes.unsafe_get out (start + j))
      done;
      o := dst + mlen
    end
  done;
  Bytes.unsafe_to_string out

let decompress (data : string) : string = decompress_at data 0
