(* Succinct bitvector with rank/select support (the substrate of the
   balanced-parentheses structure tree, repository format v4). Bits are
   packed 8 per byte, LSB-first within a byte; the rank directory is the
   classic two-level scheme — a cumulative popcount every superblock of
   512 bits plus a per-64-bit-block count relative to its superblock —
   so [rank] costs a couple of table lookups and at most seven byte
   popcounts, and [select] is a binary search over the directory
   followed by one in-block scan. The directories are rebuilt at load
   time; only the raw bits are serialized. *)

let bits_per_super = 512
let bits_per_block = 64
let bytes_per_block = bits_per_block / 8

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
  super_ranks : int array;  (* ones before each superblock *)
  block_ranks : int array;  (* ones since the superblock start, per 64-bit block *)
  ones : int;
}

let length t = t.len

let ones t = t.ones

let zeros t = t.len - t.ones

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get";
  Char.code (Bytes.get t.data (i lsr 3)) lsr (i land 7) land 1 = 1

let build_directories len data =
  let nbytes = Bytes.length data in
  let nsupers = (len + bits_per_super - 1) / bits_per_super in
  let nblocks = (len + bits_per_block - 1) / bits_per_block in
  let super_ranks = Array.make (max nsupers 1) 0 in
  let block_ranks = Array.make (max nblocks 1) 0 in
  let total = ref 0 in
  let since_super = ref 0 in
  for b = 0 to nblocks - 1 do
    if b mod (bits_per_super / bits_per_block) = 0 then begin
      super_ranks.(b / (bits_per_super / bits_per_block)) <- !total;
      since_super := 0
    end;
    block_ranks.(b) <- !since_super;
    let first = b * bytes_per_block in
    for byte = first to min (first + bytes_per_block) nbytes - 1 do
      let c = popcount8.(Char.code (Bytes.get data byte)) in
      total := !total + c;
      since_super := !since_super + c
    done
  done;
  (super_ranks, block_ranks, !total)

(* Mask of the low [k] bits of a byte (k in 0..8). *)
let low_mask k = (1 lsl k) - 1

let of_bytes ~len data =
  if len < 0 || Bytes.length data <> (len + 7) / 8 then invalid_arg "Bitvec.of_bytes";
  (* zero any padding bits so byte popcounts are exact *)
  (if len land 7 <> 0 then
     let last = Bytes.length data - 1 in
     Bytes.set data last (Char.chr (Char.code (Bytes.get data last) land low_mask (len land 7))));
  let super_ranks, block_ranks, ones = build_directories len data in
  { len; data; super_ranks; block_ranks; ones }

let init len f =
  let data = Bytes.make ((len + 7) / 8) '\000' in
  for i = 0 to len - 1 do
    if f i then
      Bytes.set data (i lsr 3)
        (Char.chr (Char.code (Bytes.get data (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  of_bytes ~len data

let rank1 t i =
  if i < 0 || i > t.len then invalid_arg "Bitvec.rank1";
  if i = 0 then 0
  else begin
    let block = (i - 1) lsr 6 in
    let super = block lsr 3 in
    let r = ref (t.super_ranks.(super) + t.block_ranks.(block)) in
    let first_byte = block * bytes_per_block in
    let last_bit = i - 1 in
    let last_byte = last_bit lsr 3 in
    for byte = first_byte to last_byte - 1 do
      r := !r + popcount8.(Char.code (Bytes.get t.data byte))
    done;
    (* partial last byte: bits [0 .. last_bit land 7] *)
    r :=
      !r
      + popcount8.(Char.code (Bytes.get t.data last_byte) land low_mask ((last_bit land 7) + 1));
    !r
  end

let rank0 t i = i - rank1 t i

(* Position of the [k]-th set bit (1-based). *)
let select1 t k =
  if k < 1 || k > t.ones then invalid_arg "Bitvec.select1";
  (* binary search the superblocks: last superblock with rank < k *)
  let nsupers = (t.len + bits_per_super - 1) / bits_per_super in
  let lo = ref 0 and hi = ref (nsupers - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.super_ranks.(mid) < k then lo := mid else hi := mid - 1
  done;
  let super = !lo in
  let base = t.super_ranks.(super) in
  (* binary search the blocks of this superblock *)
  let first_block = super * (bits_per_super / bits_per_block) in
  let nblocks = (t.len + bits_per_block - 1) / bits_per_block in
  let last_block = min (first_block + (bits_per_super / bits_per_block)) nblocks - 1 in
  let lo = ref first_block and hi = ref last_block in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if base + t.block_ranks.(mid) < k then lo := mid else hi := mid - 1
  done;
  let block = !lo in
  let need = ref (k - base - t.block_ranks.(block)) in
  (* scan the block's bytes *)
  let byte = ref (block * bytes_per_block) in
  let nbytes = Bytes.length t.data in
  let result = ref (-1) in
  while !result < 0 do
    if !byte >= nbytes then invalid_arg "Bitvec.select1: directory corrupt";
    let c = Char.code (Bytes.get t.data !byte) in
    let pc = popcount8.(c) in
    if pc >= !need then begin
      (* the needed one is inside this byte *)
      let bit = ref 0 and seen = ref 0 in
      while !result < 0 do
        if c lsr !bit land 1 = 1 then begin
          incr seen;
          if !seen = !need then result := (!byte lsl 3) lor !bit
        end;
        incr bit
      done
    end
    else begin
      need := !need - pc;
      incr byte
    end
  done;
  !result

(* Position of the [k]-th clear bit (1-based). Padding bits past [len]
   read as zero but are never counted: k is bounded by {!zeros}. *)
let select0 t k =
  if k < 1 || k > zeros t then invalid_arg "Bitvec.select0";
  let zeros_before_super s = s * bits_per_super - t.super_ranks.(s) in
  let nsupers = (t.len + bits_per_super - 1) / bits_per_super in
  let lo = ref 0 and hi = ref (nsupers - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if zeros_before_super mid < k then lo := mid else hi := mid - 1
  done;
  let super = !lo in
  let zeros_before_block b = (b * bits_per_block) - (t.super_ranks.(super) + t.block_ranks.(b)) in
  let first_block = super * (bits_per_super / bits_per_block) in
  let nblocks = (t.len + bits_per_block - 1) / bits_per_block in
  let last_block = min (first_block + (bits_per_super / bits_per_block)) nblocks - 1 in
  let lo = ref first_block and hi = ref last_block in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if zeros_before_block mid < k then lo := mid else hi := mid - 1
  done;
  let block = !lo in
  let need = ref (k - zeros_before_block block) in
  let byte = ref (block * bytes_per_block) in
  let result = ref (-1) in
  while !result < 0 do
    let c = Char.code (Bytes.get t.data !byte) in
    let pc = 8 - popcount8.(c) in
    if pc >= !need then begin
      let bit = ref 0 and seen = ref 0 in
      while !result < 0 do
        if c lsr !bit land 1 = 0 then begin
          incr seen;
          if !seen = !need then result := (!byte lsl 3) lor !bit
        end;
        incr bit
      done
    end
    else begin
      need := !need - pc;
      incr byte
    end
  done;
  !result

let data_bytes t = Bytes.length t.data

(* The compact footprint of the rank directory as an on-storage design
   would lay it out: 4 bytes per superblock cumulative count, 2 bytes
   per in-superblock block count. The in-memory arrays are wider (OCaml
   ints) but are rebuilt from the raw bits at load time, so this is what
   the occupancy experiment should charge. It depends on the length
   alone. *)
let overhead_bytes_for len =
  let nsupers = (len + bits_per_super - 1) / bits_per_super in
  let nblocks = (len + bits_per_block - 1) / bits_per_block in
  (4 * nsupers) + (2 * nblocks)

let overhead_bytes t = overhead_bytes_for t.len

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
