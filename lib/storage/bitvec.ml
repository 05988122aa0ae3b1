(* Packed bitvector: the on-disk substrate of the balanced-parentheses
   structure tree and of the wavelet tag levels (repository format v4).
   Bits are packed 8 per byte, LSB-first within a byte. The structure
   tree reads it once at load, into flat pre-order arrays, so no rank
   or select directory is built. *)

(* Bits per superblock and per block of the rank directory an
   on-storage succinct layout would carry (see [overhead_bytes_for]). *)
let bits_per_super = 512
let bits_per_block = 64

(* popcount per byte value *)
let popcount8 =
  let t = Array.make 256 0 in
  for i = 1 to 255 do
    t.(i) <- t.(i lsr 1) + (i land 1)
  done;
  t

type t = {
  len : int;  (* length in bits *)
  data : Bytes.t;  (* ceil (len/8) bytes; trailing padding bits are zero *)
  ones : int;
}

let length t = t.len

let ones t = t.ones

let byte t i = Char.code (Bytes.get t.data i)

(* Mask of the low [k] bits of a byte (k in 0..8). *)
let low_mask k = (1 lsl k) - 1

let of_bytes ~len data =
  if len < 0 || Bytes.length data <> (len + 7) / 8 then invalid_arg "Bitvec.of_bytes";
  (* zero any padding bits so byte popcounts are exact *)
  (if len land 7 <> 0 then
     let last = Bytes.length data - 1 in
     Bytes.set data last (Char.chr (Char.code (Bytes.get data last) land low_mask (len land 7))));
  let ones = ref 0 in
  Bytes.iter (fun c -> ones := !ones + popcount8.(Char.code c)) data;
  { len; data; ones = !ones }

let init len f =
  let data = Bytes.make ((len + 7) / 8) '\000' in
  for i = 0 to len - 1 do
    if f i then
      Bytes.set data (i lsr 3)
        (Char.chr (Char.code (Bytes.get data (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  of_bytes ~len data

(* The compact footprint of a two-level rank directory as an on-storage
   design would lay it out: 4 bytes per 512-bit superblock cumulative
   count, 2 bytes per 64-bit in-superblock block count. Nothing builds
   it in memory; the occupancy breakdown charges it all the same, and
   it depends on the length alone. *)
let overhead_bytes_for len =
  let nsupers = (len + bits_per_super - 1) / bits_per_super in
  let nblocks = (len + bits_per_block - 1) / bits_per_block in
  (4 * nsupers) + (2 * nblocks)

let serialize buf t =
  Compress.Rle.add_varint buf t.len;
  Buffer.add_bytes buf t.data

let deserialize s pos =
  let len, pos = Compress.Rle.read_varint s pos in
  let nbytes = (len + 7) / 8 in
  if pos + nbytes > String.length s then failwith "Bitvec.deserialize: truncated";
  let data = Bytes.of_string (String.sub s pos nbytes) in
  (of_bytes ~len data, pos + nbytes)

(* ------------------------------------------------------------------ *)
(* Wavelet tree over small integer codes                               *)
(* ------------------------------------------------------------------ *)

module Wavelet = struct
  type t = {
    n : int;
    width : int;  (* bits per code, >= 1 *)
    levels : Bytes.t array;  (* one packed bit level per code bit, MSB level first *)
  }

  let length w = w.n

  let width w = w.width

  let width_for max_code =
    let rec go w = if max_code lsr w = 0 then w else go (w + 1) in
    max 1 (go 0)

  (* Pointerless, levelwise layout (practical rank/select over
     sequences, SPIRE 2008): level l lists the codes stably sorted by
     their top l bits, so each run of equal prefix (a bucket) is one
     node interval of the tree, and stores bit l of each.

     [walk_levels ~n ~width ~levels fill] visits the levels in order.
     For each it first calls [fill level perm], where [perm] holds the
     sequence position of the code at each level position, so a
     builder can set that level's bits; then, below the last level, it
     splits every bucket stably into its zeros, then its ones, reading
     the bits back: one pass counts the bucket's ones, one deals its
     entries to the two halves' cursors. Buckets are kept as start
     positions with their prefixes, and [perm] as packed int32s, so
     each level streams only the permutation. It returns the last
     level's buckets (starts, with [n] appended, and prefixes: all but
     the codes' last bit) and permutation. *)
  type perm = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let walk_levels ~n ~width ~levels (fill : int -> perm -> unit) =
    if n > Int32.to_int Int32.max_int then invalid_arg "Wavelet: too many codes";
    let make () : perm = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
    let perm = ref (make ()) and spare = ref (make ()) in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set !perm i (Int32.of_int i)
    done;
    let starts = ref [| 0; n |] and prefixes = ref [| 0 |] in
    for level = 0 to width - 1 do
      fill level !perm;
      if level < width - 1 then begin
        let data = levels.(level) in
        let bit p = Char.code (Bytes.unsafe_get data (p lsr 3)) lsr (p land 7) land 1 in
        let pm = !perm and pm' = !spare and st = !starts and pre = !prefixes in
        let nb = Array.length pre in
        let st' = Array.make ((2 * nb) + 1) n and pre' = Array.make (2 * nb) 0 in
        let nb' = ref 0 in
        let half start prefix =
          st'.(!nb') <- start;
          pre'.(!nb') <- prefix;
          incr nb'
        in
        for k = 0 to nb - 1 do
          let a = st.(k) and e = st.(k + 1) in
          let ones = ref 0 in
          for p = a to e - 1 do
            ones := !ones + bit p
          done;
          let mid = e - !ones in
          (* cursors of the two halves, picked without a branch: the
             bits are as good as random to a branch predictor *)
          let o0 = ref a and o1 = ref mid in
          for p = a to e - 1 do
            let b = bit p in
            let j = (b * !o1) + ((1 - b) * !o0) in
            o0 := !o0 + 1 - b;
            o1 := !o1 + b;
            Bigarray.Array1.unsafe_set pm' j (Bigarray.Array1.unsafe_get pm p)
          done;
          if mid > a then half a (pre.(k) lsl 1);
          if e > mid then half mid ((pre.(k) lsl 1) lor 1)
        done;
        starts := Array.sub st' 0 (!nb' + 1);
        prefixes := Array.sub pre' 0 !nb';
        perm := pm';
        spare := pm
      end
    done;
    (!starts, !prefixes, !perm)

  let build ~width (codes : int array) : t =
    if width < 1 then invalid_arg "Wavelet.build";
    let n = Array.length codes in
    Array.iter
      (fun c -> if c < 0 || c lsr width <> 0 then invalid_arg "Wavelet.build: code out of range")
      codes;
    let levels = Array.init width (fun _ -> Bytes.make ((n + 7) / 8) '\000') in
    ignore
      (walk_levels ~n ~width ~levels (fun level perm ->
           let data = levels.(level) and shift = width - 1 - level in
           for pos = 0 to n - 1 do
             if codes.(Int32.to_int (Bigarray.Array1.unsafe_get perm pos)) lsr shift land 1 = 1
             then
               Bytes.set data (pos lsr 3)
                 (Char.chr (Char.code (Bytes.get data (pos lsr 3)) lor (1 lsl (pos land 7))))
           done));
    { n; width; levels }

  (* The levels already hold the bits: walk them, then complete each
     last bucket's prefix with the last level's bit and put the code
     back at its sequence position. *)
  let decode w : int array =
    let starts, prefixes, perm =
      walk_levels ~n:w.n ~width:w.width ~levels:w.levels (fun _ _ -> ())
    in
    let last = w.levels.(w.width - 1) in
    let codes = Array.make w.n 0 in
    Array.iteri
      (fun k prefix ->
        for p = starts.(k) to starts.(k + 1) - 1 do
          let bit = Char.code (Bytes.unsafe_get last (p lsr 3)) lsr (p land 7) land 1 in
          codes.(Int32.to_int (Bigarray.Array1.unsafe_get perm p)) <- (prefix lsl 1) lor bit
        done)
      prefixes;
    codes

  (* The compact rank directories the levels would carry on storage
     depend on n and the width only. *)
  let overhead_bytes ~n ~width = width * overhead_bytes_for n

  let serialize buf w =
    Compress.Rle.add_varint buf w.n;
    Compress.Rle.add_varint buf w.width;
    Array.iter (Buffer.add_bytes buf) w.levels

  let deserialize s pos =
    let n, pos = Compress.Rle.read_varint s pos in
    let width, pos = Compress.Rle.read_varint s pos in
    if width < 1 || width > 62 then failwith "Wavelet.deserialize: bad width";
    let nbytes = (n + 7) / 8 in
    let pos = ref pos in
    let levels =
      Array.init width (fun _ ->
          if !pos + nbytes > String.length s then failwith "Wavelet.deserialize: truncated";
          let data = Bytes.of_string (String.sub s !pos nbytes) in
          pos := !pos + nbytes;
          data)
    in
    ({ n; width; levels }, !pos)
end
