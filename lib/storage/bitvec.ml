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

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get";
  Char.code (Bytes.get t.data (i lsr 3)) lsr (i land 7) land 1 = 1

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
     sequences, SPIRE 2008): level l lists
     the codes stably sorted by their top l bits, so each run of equal
     prefix is one node interval of the tree, and stores bit l of each.
     [perm.(p)] is the sequence position of the code at level position
     [p]; the next level's order is the stable zeros-then-ones split of
     every run. [build] and [decode] both walk the levels this way, with
     two permutation arrays reused across levels.

     [split_runs keys s perm next]: within every run of [perm] whose
     [keys] agree above bit [s], move the positions with bit [s] clear
     ahead of those with it set, preserving order, into [next]. *)
  let split_runs keys s perm next =
    let n = Array.length perm in
    let start = ref 0 in
    while !start < n do
      let prefix = keys.(perm.(!start)) lsr (s + 1) in
      let stop = ref (!start + 1) in
      while !stop < n && keys.(perm.(!stop)) lsr (s + 1) = prefix do
        incr stop
      done;
      let out = ref !start in
      for bit = 0 to 1 do
        for pos = !start to !stop - 1 do
          if keys.(perm.(pos)) lsr s land 1 = bit then begin
            next.(!out) <- perm.(pos);
            incr out
          end
        done
      done;
      start := !stop
    done

  (* Run [f level perm] for every level, [perm] in that level's order,
     splitting runs by bit [shift level] of [keys] between levels. *)
  let walk_levels ~n ~width ~keys ~shift f =
    let perm = ref (Array.init n Fun.id) and next = ref (Array.make n 0) in
    for level = 0 to width - 1 do
      f level !perm;
      if level < width - 1 then begin
        let p = !perm in
        split_runs keys (shift level) p !next;
        perm := !next;
        next := p
      end
    done

  let build ~width (codes : int array) : t =
    if width < 1 then invalid_arg "Wavelet.build";
    let n = Array.length codes in
    Array.iter
      (fun c -> if c < 0 || c lsr width <> 0 then invalid_arg "Wavelet.build: code out of range")
      codes;
    let levels = Array.init width (fun _ -> Bytes.make ((n + 7) / 8) '\000') in
    walk_levels ~n ~width ~keys:codes
      ~shift:(fun level -> width - 1 - level)
      (fun level perm ->
        let data = levels.(level) and shift = width - 1 - level in
        for pos = 0 to n - 1 do
          if codes.(perm.(pos)) lsr shift land 1 = 1 then
            Bytes.set data (pos lsr 3)
              (Char.chr (Char.code (Bytes.get data (pos lsr 3)) lor (1 lsl (pos land 7))))
        done);
    { n; width; levels }

  (* The codes are decoded a bit per level, so at each split the bit
     just read is the lowest one decoded so far. *)
  let decode w : int array =
    let codes = Array.make w.n 0 in
    walk_levels ~n:w.n ~width:w.width ~keys:codes
      ~shift:(fun _ -> 0)
      (fun level perm ->
        let data = w.levels.(level) in
        for pos = 0 to w.n - 1 do
          let bit = Char.code (Bytes.get data (pos lsr 3)) lsr (pos land 7) land 1 in
          let c = perm.(pos) in
          codes.(c) <- (codes.(c) lsl 1) lor bit
        done);
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
