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

let compress (data : string) : string =
  let n = String.length data in
  let w = Bitio.Writer.create ~size:n () in
  (* Chained hash table over 3-byte prefixes. *)
  let hash_bits = 14 in
  let head = Array.make (1 lsl hash_bits) (-1) in
  let prev = Array.make (max n 1) (-1) in
  let hash i =
    (Char.code data.[i] lsl 10)
    lxor (Char.code data.[i + 1] lsl 5)
    lxor Char.code data.[i + 2]
    land ((1 lsl hash_bits) - 1)
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let find_match i =
    if i + min_match > n then None
    else begin
      let limit = max 0 (i - window) in
      let best_len = ref 0 and best_pos = ref (-1) in
      let cand = ref head.(hash i) in
      let tries = ref 32 in
      while !cand >= limit && !tries > 0 do
        let c = !cand in
        if c < i then begin
          let len = ref 0 in
          let max_here = min max_match (n - i) in
          while !len < max_here && data.[c + !len] = data.[i + !len] do
            incr len
          done;
          if !len > !best_len then begin
            best_len := !len;
            best_pos := c
          end
        end;
        cand := prev.(c);
        decr tries
      done;
      if !best_len >= min_match then Some (!best_pos, !best_len) else None
    end
  in
  let header = Buffer.create 8 in
  Rle.add_varint header n;
  let i = ref 0 in
  while !i < n do
    (match find_match !i with
    | Some (pos, len) ->
      Bitio.Writer.add_bit w false;
      Bitio.Writer.add_bits w (!i - pos - 1) window_bits;
      Bitio.Writer.add_bits w (len - min_match) 4;
      for j = !i to !i + len - 1 do
        insert j
      done;
      i := !i + len
    | None ->
      Bitio.Writer.add_bit w true;
      Bitio.Writer.add_bits w (Char.code data.[!i]) 8;
      insert !i;
      incr i)
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
