(* ALM (Antoshenkov-Lomet-Murray) dictionary-based order-preserving string
   compression, as used by XQueC (EDBT'04, §2.1 and Fig. 2).

   The string space is partitioned into disjoint lexicographic intervals.
   Each interval is associated with a dictionary token that is a prefix of
   every string in the interval, and with a fixed-width integer code;
   codes are assigned in interval order. Encoding a string repeatedly
   locates the interval containing the remaining suffix, emits its code and
   strips the token. Because (a) intervals are code-ordered, (b) stripping
   a shared prefix preserves relative order, and (c) code 0 is reserved for
   padding (so a shorter code sequence always compares below any
   continuation), the byte-string comparison of two compressed values
   coincides with the comparison of the plaintexts — inequality and
   equality predicates run entirely in the compressed domain.

   A token that is a proper prefix of other tokens receives several codes,
   one per gap between the longer tokens' regions: this is exactly the
   paper's Fig. 2, where "the" maps to codes c and e around the code d of
   "there". *)

(* The intervals sorted by lower bound; the code of interval [i] is
   [i + 1]. They tile the string space: interval [i] ends where [i + 1]
   begins, and the last one is unbounded, so only lower bounds are kept.
   The decoder reads the tokens from [flat], every interval's token back
   to back plus 8 bytes of padding: code [c]'s token is
   [flat.[offs.(c - 1)] .. flat.[offs.(c) - 1]]. *)
type model = {
  los : string array;  (* inclusive lower bounds *)
  first : int array;
      (* 257 entries: [first.(b)] is the index of the first lower bound
         whose first byte is [b] or more, so [first.(256)] is the
         interval count. Every single byte is itself a lower bound, so
         the interval of a string starting with byte [b] lies in
         [first.(b)] .. [first.(b + 1) - 1]. *)
  flat : string;
  offs : int array;    (* one more than [los] *)
  width : int;         (* bits per code; code 0 is padding *)
  mined : string array;  (* the multi-byte tokens, strictly increasing *)
  longest : int;         (* the longest token's length *)
}

exception Corrupt of string

(* Smallest string strictly greater than every string with prefix [t]. *)
let next_prefix (t : string) : string option =
  let rec go i =
    if i < 0 then None
    else if t.[i] = '\xff' then go (i - 1)
    else begin
      let b = Bytes.create (i + 1) in
      Bytes.blit_string t 0 b 0 i;
      Bytes.set b i (Char.chr (Char.code t.[i] + 1));
      Some (Bytes.unsafe_to_string b)
    end
  in
  go (String.length t - 1)

(* ------------------------------------------------------------------ *)
(* Token mining                                                        *)
(* ------------------------------------------------------------------ *)

(* Candidate lengths, in the order each offset tries them. *)
let token_lengths = [| 2; 3; 4; 5; 6; 8; 10; 12; 16; 20; 24 |]

(* Distinct candidates counted; first occurrences past the cap are
   dropped. *)
let max_candidates = 1 lsl 18

(* A candidate's hash: FNV-1a over its bytes, then its length mixed in.
   The miner runs the byte loop once per offset and finishes it at each
   candidate length. *)
let fnv_step h c = (h lxor Char.code c) * 0x100000001b3

let finish_hash h len =
  let m = (h lxor len) * 0x9e3779b97f4a7c1 in
  m lxor (m lsr 31)

(* The candidate table: an open-addressing index over dense entries in
   first-seen order. Entry [d] is two 64-bit cells of [ent] (bytes [16d]
   on): the first occurrence packed as [pos lsl 5 lor len] (the
   [len]-byte slice of [sample] at [pos]), and its count. [ent] is not
   initialised: an entry is written when it is appended, before any
   read. A slot is a 32-bit cell: 0 when empty, else [d + 1] in the low
   [idx_bits] bits and 12 bits of the hash above them, so most probes
   that miss never read an entry.

   The table is sized once, for every candidate occurrence the sample
   holds (at most [max_candidates]), and stays at most half full: it
   never rehashes, and 4-byte slots keep the tables of long samples in
   cache. Both are allocated per call and dropped when it returns; as
   bytes, [ent] costs no zero-filling and no GC scan. *)
type candidates = {
  sample : Bytes.t;
  ent : Bytes.t;
  mutable n : int;
  slots : Bytes.t;
  mask : int;  (* slot count - 1 *)
}

let idx_bits = 19 (* holds [max_candidates] *)
let idx_mask = (1 lsl idx_bits) - 1
let tag h = ((h lsr 40) land 0xfff) lsl idx_bits
let cell slots i = Int32.to_int (Bytes.get_int32_le slots (4 * i))
let set_cell slots i v = Bytes.set_int32_le slots (4 * i) (Int32.of_int v)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let ent_key t d = Int64.to_int (get64u t.ent (16 * d))
let ent_count t d = Int64.to_int (get64u t.ent ((16 * d) + 8))
let set_ent t d key count =
  set64u t.ent (16 * d) (Int64.of_int key);
  set64u t.ent ((16 * d) + 8) (Int64.of_int count)

(* Candidate occurrences in the values [taken]: at each offset of a
   value of length [n], one per token length that fits. *)
let occurrences taken =
  List.fold_left
    (fun acc v ->
      let n = String.length v in
      Array.fold_left (fun acc l -> if l <= n then acc + n - l + 1 else acc) acc token_lengths)
    0 taken

let create_candidates sample most =
  let slots = ref 16 in
  while !slots < 2 * most do
    slots := 2 * !slots
  done;
  { sample; ent = Bytes.create (16 * most); n = 0;
    slots = Bytes.make (4 * !slots) '\000'; mask = !slots - 1 }

let rec slice_equal s a b len k =
  k = len || (Bytes.unsafe_get s (a + k) = Bytes.unsafe_get s (b + k) && slice_equal s a b len (k + 1))

(* Count one occurrence of the [len]-byte slice at [pos], whose hash is
   [h], probing from slot [i]: bump its entry, or append a new one while
   under the cap. *)
let rec note t pos len h i =
  let c = cell t.slots i in
  if c = 0 then begin
    if t.n < max_candidates then begin
      let d = t.n in
      set_ent t d ((pos lsl 5) lor len) 1;
      t.n <- d + 1;
      set_cell t.slots i (tag h lor (d + 1))
    end
  end
  else
    let d = (c land idx_mask) - 1 in
    if
      c lxor tag h <= idx_mask
      &&
      let key = ent_key t d in
      key land 31 = len && slice_equal t.sample (key lsr 5) pos len 0
    then set64u t.ent ((16 * d) + 8) (Int64.of_int (ent_count t d + 1))
    else note t pos len h ((i + 1) land t.mask)

(* Bucket count of a [Hashtbl.create 4096] table after [n] adds: it
   doubles whenever its size exceeds twice the bucket count. *)
let hashtbl_buckets n =
  let rec go b = if n <= 2 * b then b else go (2 * b) in
  go 4096

(** Frequent-substring mining; the selection rules are in alm.mli. *)
let mine_tokens ?(max_tokens = 512) ?(sample_bytes = 1 lsl 20) (values : string list) :
    string list =
  (* The sample is the prefix of [values] taken while budget remains,
     copied back to back into one buffer. *)
  let rec take_sample budget acc = function
    | v :: rest when budget > 0 -> take_sample (budget - String.length v) (v :: acc) rest
    | _ -> List.rev acc
  in
  let taken = take_sample sample_bytes [] values in
  let sample = Bytes.create (List.fold_left (fun a v -> a + String.length v) 0 taken) in
  let t = create_candidates sample (min max_candidates (occurrences taken)) in
  let start = ref 0 in
  List.iter
    (fun v ->
      let n = String.length v in
      Bytes.blit_string v 0 sample !start n;
      let stop = !start + n in
      (* Candidates never cross a value boundary. *)
      for pos = !start to stop - 2 do
        let h = ref 0 and li = ref 0 in
        for k = 1 to min 24 (stop - pos) do
          h := fnv_step !h (Bytes.unsafe_get sample (pos + k - 1));
          if k = token_lengths.(!li) then begin
            let hk = finish_hash !h k in
            note t pos k hk (hk land t.mask);
            incr li
          end
        done
      done;
      start := stop)
    taken;
  (* savings estimate: each occurrence replaces len bytes by ~1.5 code
     bytes; require enough occurrences to pay for the dictionary entry.
     Ties keep the order a stable sort of a [Hashtbl.create 4096] fold
     gives them: bucket descending, then first seen. *)
  let buckets = hashtbl_buckets t.n in
  let scored = ref [] in
  for d = t.n - 1 downto 0 do
    let c = ent_count t d in
    if c >= 3 then begin
      let key = ent_key t d in
      let len = key land 31 in
      let tok = Bytes.sub_string sample (key lsr 5) len in
      let score = (c * ((2 * len) - 3)) - (2 * len) in
      scored := (score, Hashtbl.hash tok land (buckets - 1), d, tok) :: !scored
    end
  done;
  let sorted =
    List.sort
      (fun (s, b, d, _) (s', b', d', _) ->
        if s <> s' then compare s' s else if b <> b' then compare b' b else compare d d')
      !scored
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, _, _, tok) :: rest -> tok :: take (n - 1) rest
  in
  take max_tokens sorted

(* ------------------------------------------------------------------ *)
(* Model construction                                                  *)
(* ------------------------------------------------------------------ *)

(* The 256 single-byte tokens, which every dictionary holds so that each
   nonempty string has a covering interval, and their [next_prefix]. *)
let singles = Array.init 256 (fun b -> String.make 1 (Char.chr b))
let single_succs = Array.init 256 (fun b -> if b = 255 then None else Some singles.(b + 1))

let rec prefix_from p s i =
  i = String.length p || (String.unsafe_get p i = String.unsafe_get s i && prefix_from p s (i + 1))

let is_prefix p s = String.length p <= String.length s && prefix_from p s 0

(* The model of the strictly increasing multi-byte tokens [mined], with
   the single bytes merged in. A token [t] owns what its children leave
   of [[t, next_prefix t)], a child being a longer token whose longest
   proper prefix in the dictionary is [t]: one interval before its first
   child, one between each two children and one after the last, each
   only when nonempty. A depth-first walk emits them in lower-bound
   order. The tokens arrive sorted, so a stack holds the open ancestors
   of the current token, each with the lower bound of its next interval
   ([None] once that bound would be past every string). *)
let build (mined : string array) : model =
  let n = Array.length mined in
  let los = Array.make ((2 * n) + 256) "" and toks = Array.make ((2 * n) + 256) "" in
  let count = ref 0 in
  let emit lo tok =
    los.(!count) <- lo;
    toks.(!count) <- tok;
    incr count
  in
  (* Each stacked token is a proper prefix of the one above it, so the
     stack is at most as deep as the longest token is long. *)
  let longest = Array.fold_left (fun d t -> max d (String.length t)) 1 mined in
  let stack = Array.make longest "" and next_lo = Array.make longest None in
  let top = ref 0 in
  let pop () =
    decr top;
    let t = stack.(!top) in
    let hi = if String.length t = 1 then single_succs.(Char.code t.[0]) else next_prefix t in
    (match (next_lo.(!top), hi) with
    | (Some lo, None) -> emit lo t
    | (Some lo, Some h) when String.compare lo h < 0 -> emit lo t
    | _ -> ());
    if !top > 0 then next_lo.(!top - 1) <- hi
  in
  let push u =
    while !top > 0 && not (is_prefix stack.(!top - 1) u) do
      pop ()
    done;
    (if !top > 0 then
       match next_lo.(!top - 1) with
       | Some lo when String.compare lo u < 0 -> emit lo stack.(!top - 1)
       | _ -> ());
    stack.(!top) <- u;
    next_lo.(!top) <- Some u;
    incr top
  in
  let j = ref 0 in
  for b = 0 to 255 do
    push singles.(b);
    while !j < n && Char.code (String.unsafe_get mined.(!j) 0) = b do
      push mined.(!j);
      incr j
    done
  done;
  while !top > 0 do
    pop ()
  done;
  let count = !count in
  let offs = Array.make (count + 1) 0 in
  for i = 0 to count - 1 do
    offs.(i + 1) <- offs.(i) + String.length toks.(i)
  done;
  let flat = Bytes.make (offs.(count) + 8) '\000' in
  for i = 0 to count - 1 do
    Bytes.blit_string toks.(i) 0 flat offs.(i) (String.length toks.(i))
  done;
  let first = Array.make 257 count in
  for i = count - 1 downto 0 do
    first.(Char.code los.(i).[0]) <- i
  done;
  { los = Array.sub los 0 count; first; flat = Bytes.unsafe_to_string flat; offs;
    width = Bitio.width_for (count + 1); mined; longest }

let of_tokens (tokens : string list) : model =
  build (Array.of_list (List.sort_uniq String.compare (List.filter (fun t -> String.length t > 1) tokens)))

(** Train on container values: mined frequent substrings + total byte
    coverage. The dictionary budget adapts to the container size so the
    source model never dwarfs the data it compresses. *)
let train ?max_tokens ?sample_bytes (values : string list) : model =
  let max_tokens =
    match max_tokens with
    | Some m -> m
    | None ->
      let total = List.fold_left (fun acc v -> acc + String.length v) 0 values in
      min 1024 (max 8 (total / 96))
  in
  of_tokens
    (Xquec_obs.Trace.with_span ~name:"alm.mine" (fun () ->
         mine_tokens ~max_tokens ?sample_bytes values))

(* ------------------------------------------------------------------ *)
(* Encoding / decoding                                                 *)
(* ------------------------------------------------------------------ *)

(* Whether [lo] is at most the suffix of [s] from [off], compared in
   place. *)
let rec le_from lo s off i =
  i = String.length lo
  || off + i < String.length s
     &&
     let a = Char.code (String.unsafe_get lo i) and b = Char.code (String.unsafe_get s (off + i)) in
     a < b || (a = b && le_from lo s off (i + 1))

(* The interval holding the nonempty suffix of [s] from [off]: the
   rightmost whose lower bound is at most it, searched among the bounds
   that share the suffix's first byte (the first of them is that byte
   alone), so comparisons start at the second byte. *)
let find_interval (m : model) (s : string) (off : int) : int =
  let b = Char.code (String.unsafe_get s off) in
  let lo = ref m.first.(b) and hi = ref (m.first.(b + 1) - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if le_from m.los.(mid) s off 1 then lo := mid else hi := mid - 1
  done;
  !lo

(* Every string in an interval starts with its token, so each step
   consumes the token of the interval the rest of the value falls in. *)
let compress (m : model) (value : string) : string =
  let w = Bitio.Writer.create ~size:(String.length value) () in
  let off = ref 0 in
  while !off < String.length value do
    let i = find_interval m value !off in
    Bitio.Writer.add_bits w (i + 1) m.width;
    off := !off + m.offs.(i + 1) - m.offs.(i)
  done;
  Bitio.Writer.contents w

(* Codes are read from an accumulator: [acc] holds [nbits] unread bits
   in its low end. It is refilled 48 bits at a time while at most 15
   bits are unread and 6 bytes are left, which fits in 63 bits, and
   else a byte at a time (the last bytes, and codes wider than 16
   bits). Code 0 is padding, and fewer than [width] bits left is the
   end.

   The tokens are copied as 8-byte words into a buffer of the decoding
   domain, and the result is appended from it to the caller's buffer. A
   word may run up to 7 bytes past its token: in [flat] into the
   padding, in the buffer into bytes the next token overwrites. Before
   each refill the buffer is made to hold all that the refilled
   accumulator can write: a width is at least 9 bits (every model has
   the 256 single-byte intervals), so 63 bits hold at most 7 codes, each
   writing at most [longest] bytes plus the 7 past them. These bounds
   are why the word copies go unchecked. A result that outgrows the
   buffer continues in a fresh one twice as large, which is not kept,
   so the kept buffer stays [scratch_bytes] long. *)
let get48 s pos =
  (String.get_uint16_be s pos lsl 32) lor (Int32.to_int (String.get_int32_be s (pos + 2)) land 0xffff_ffff)

external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let scratch_bytes = 4096
let scratch = Domain.DLS.new_key (fun () -> Bytes.create scratch_bytes)

let grow out used need =
  let b = Bytes.create (max need (2 * Bytes.length out)) in
  Bytes.blit out 0 b 0 used;
  b

let decompress_into (m : model) (s : string) (dest : Buffer.t) : unit =
  let w = m.width and offs = m.offs and flat = m.flat in
  let mask = (1 lsl w) - 1 and n = String.length s in
  let room = (7 * m.longest) + 7 in
  let out = ref (Domain.DLS.get scratch) in
  let pos = ref 0 and acc = ref 0 and nbits = ref 0 and dst = ref 0 and fin = ref false in
  while not !fin do
    if !nbits < w then begin
      if !dst + room > Bytes.length !out then out := grow !out !dst (!dst + room);
      if !nbits <= 15 && !pos + 6 <= n then begin
        acc := (!acc lsl 48) lor get48 s !pos;
        pos := !pos + 6;
        nbits := !nbits + 48
      end
      else if !pos < n then begin
        acc := (!acc lsl 8) lor Char.code (String.unsafe_get s !pos);
        incr pos;
        nbits := !nbits + 8
      end
      else fin := true
    end
    else begin
      nbits := !nbits - w;
      let code = (!acc lsr !nbits) land mask in
      if code = 0 then fin := true
      else if code >= Array.length offs then raise (Corrupt "ALM: bad code")
      else begin
        let src = Array.unsafe_get offs (code - 1) and d = !dst in
        let len = Array.unsafe_get offs code - src in
        let o = !out in
        set64u o d (get64u flat src);
        let k = ref 8 in
        while !k < len do
          set64u o (d + !k) (get64u flat (src + !k));
          k := !k + 8
        done;
        dst := d + len
      end
    end
  done;
  Buffer.add_subbytes dest !out 0 !dst

let decompress (m : model) (s : string) : string =
  let dest = Buffer.create 32 in
  decompress_into m s dest;
  Buffer.contents dest

let code_width (m : model) = m.width

let code_tokens (m : model) =
  Array.init (Array.length m.los) (fun i -> String.sub m.flat m.offs.(i) (m.offs.(i + 1) - m.offs.(i)))

let code_bounds (m : model) = Array.copy m.los

(* ------------------------------------------------------------------ *)
(* Compressed-domain operations                                        *)
(* ------------------------------------------------------------------ *)

(** Compressed bounds for a prefix-wildcard [p*]: ALM being
    order-preserving, matching strings are exactly those in
    [compress p, compress (next_prefix p)). This goes beyond the paper's
    wild=false (kept false in the cost model) but is exposed as an
    extension. *)
let prefix_range (m : model) (prefix : string) : string * string option =
  let lo = compress m prefix in
  let hi = Option.map (compress m) (next_prefix prefix) in
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* Model serialization                                                 *)
(* ------------------------------------------------------------------ *)

(* The interval set is a pure function of the token set, so the source
   model on storage is just the mined (multi-byte) tokens, in increasing
   order: a uint16 count, then each token as a length byte and its
   bytes. The 256 single-byte tokens are implicit. *)

let model_tokens (m : model) : string list = Array.to_list m.mined

let model_size (m : model) = Array.fold_left (fun a t -> a + 1 + String.length t) 2 m.mined

let serialize_model (m : model) : string =
  let buf = Buffer.create (model_size m) in
  Buffer.add_uint16_be buf (Array.length m.mined);
  Array.iter
    (fun t ->
      Buffer.add_uint8 buf (String.length t);
      Buffer.add_string buf t)
    m.mined;
  Buffer.contents buf

let deserialize_model (s : string) : model =
  let corrupt msg = raise (Corrupt ("ALM model: " ^ msg)) in
  if String.length s < 2 then corrupt "no token count";
  let n = String.get_uint16_be s 0 in
  let mined = Array.make n "" in
  let pos = ref 2 in
  for i = 0 to n - 1 do
    if !pos >= String.length s then corrupt "body shorter than its token count";
    let len = Char.code s.[!pos] in
    if len < 2 then corrupt "token shorter than 2 bytes";
    if !pos + 1 + len > String.length s then corrupt "body shorter than its token count";
    let t = String.sub s (!pos + 1) len in
    if i > 0 && String.compare mined.(i - 1) t >= 0 then corrupt "tokens not strictly increasing";
    mined.(i) <- t;
    pos := !pos + 1 + len
  done;
  build mined
