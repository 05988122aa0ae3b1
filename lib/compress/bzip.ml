(* bzip2-like block compressor: BWT + MTF + zero-RLE + Huffman.
   This is the "generic compression algorithm (e.g. bzip)" of §3.3 (the
   blind initial assignment of the greedy search) and the per-container
   back-end of the XMill baseline.

   Frame layout (per block):
     varint block plaintext length
     varint BWT primary index
     varint RLE-stream length
     u8     mode (0 = huffman, 1 = stored)
     [mode 0] 257-byte Huffman model, varint code byte count, code bytes
     [mode 1] RLE bytes verbatim
   A leading varint gives the total plaintext length; blocks follow until
   it is covered. Tiny inputs skip the Huffman stage automatically, so the
   codec degrades gracefully when (mis)used per-value. *)

let block_size = 1 lsl 18

exception Corrupt of string

let add_varint = Rle.add_varint
let read_varint = Rle.read_varint

let compress_block buf (block : string) =
  let bwt = Bwt.transform block in
  let rle = Rle.encode (Mtf.encode bwt.Bwt.data) in
  add_varint buf (String.length block);
  add_varint buf bwt.Bwt.primary;
  add_varint buf (String.length rle);
  let stored () =
    Buffer.add_char buf '\001';
    Buffer.add_string buf rle
  in
  (* the model alone takes [Huffman.symbol_count] bytes, so a stream no
     longer than that is stored without training one *)
  if String.length rle <= Huffman.symbol_count then stored ()
  else begin
    let model = Huffman.train_raw rle in
    let coded = Huffman.compress_raw model rle in
    let huffman_cost = Huffman.model_size model + String.length coded in
    if huffman_cost < String.length rle then begin
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Huffman.serialize_model model);
      add_varint buf (String.length coded);
      Buffer.add_string buf coded
    end
    else stored ()
  end

let compress (data : string) : string =
  let buf = Buffer.create (String.length data / 2) in
  add_varint buf (String.length data);
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    let len = min block_size (n - !pos) in
    compress_block buf (String.sub data !pos len);
    pos := !pos + len
  done;
  Buffer.contents buf

let decompress (data : string) : string =
  let (total, pos) = read_varint data 0 in
  let out = Buffer.create total in
  let pos = ref pos in
  while Buffer.length out < total do
    let (block_len, p) = read_varint data !pos in
    let (primary, p) = read_varint data p in
    let (rle_len, p) = read_varint data p in
    let mode = Char.code data.[p] in
    let p = p + 1 in
    let (rle, p) =
      match mode with
      | 0 ->
        let model =
          Huffman.deserialize_model (String.sub data p Huffman.symbol_count)
        in
        let p = p + Huffman.symbol_count in
        let (coded_len, p) = read_varint data p in
        let coded = String.sub data p coded_len in
        (Huffman.decompress_raw model ~count:rle_len coded, p + coded_len)
      | 1 -> (String.sub data p rle_len, p + rle_len)
      | m -> raise (Corrupt (Printf.sprintf "bad block mode %d" m))
    in
    pos := p;
    let block = Bwt.inverse { Bwt.data = Mtf.decode (Rle.decode rle); primary } in
    if String.length block <> block_len then raise (Corrupt "block length mismatch");
    Buffer.add_string out block
  done;
  Buffer.contents out
