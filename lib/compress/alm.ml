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

type interval = {
  lo : string;           (* inclusive lower bound *)
  hi : string option;    (* exclusive upper bound; None = +infinity *)
  token : string;        (* prefix stripped/emitted for this interval *)
}

(* The intervals as three parallel arrays, sorted by lower bound; the
   code of interval [i] is [i + 1]. Decoding reads [tokens] only. *)
type model = {
  los : string array;         (* inclusive lower bounds *)
  his : string option array;  (* exclusive upper bounds *)
  tokens : string array;
  width : int;                (* bits per code; code 0 is padding *)
}

exception Corrupt of string

(* Smallest string strictly greater than every string with prefix [t]. *)
let next_prefix (t : string) : string option =
  let rec go i =
    if i < 0 then None
    else if t.[i] = '\xff' then go (i - 1)
    else Some (String.sub t 0 i ^ String.make 1 (Char.chr (Char.code t.[i] + 1)))
  in
  go (String.length t - 1)

let below_hi (s : string) (hi : string option) =
  match hi with None -> true | Some h -> String.compare s h < 0

let bound_lt (a : string option) (b : string option) =
  (* Compare exclusive upper bounds / lower bounds where None = +inf. *)
  match a, b with
  | None, _ -> false
  | Some _, None -> true
  | Some x, Some y -> String.compare x y < 0

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

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
   first-seen order. Entry [d] is [ent.(2d)], the first occurrence
   packed as [pos lsl 5 lor len] (the [len]-byte slice of [sample] at
   [pos]), and [ent.(2d+1)], its count. A slot is a 32-bit cell: 0 when
   empty, else [d + 1] in the low [idx_bits] bits and 12 bits of the
   hash above them, so most probes that miss never read an entry.

   The table is sized once, for every candidate the sample can hold,
   and stays at most half full: it never rehashes, and 4-byte slots keep
   the tables of long samples in cache. *)
type candidates = {
  sample : Bytes.t;
  ent : int array;
  mutable n : int;
  slots : Bytes.t;
  mask : int;  (* slot count - 1 *)
}

let idx_bits = 19 (* holds [max_candidates] *)
let idx_mask = (1 lsl idx_bits) - 1
let tag h = ((h lsr 40) land 0xfff) lsl idx_bits
let cell slots i = Int32.to_int (Bytes.get_int32_le slots (4 * i))
let set_cell slots i v = Bytes.set_int32_le slots (4 * i) (Int32.of_int v)

let create_candidates sample =
  let most = min max_candidates (Array.length token_lengths * Bytes.length sample) in
  let slots = ref 16 in
  while !slots < 2 * most do
    slots := 2 * !slots
  done;
  { sample; ent = Array.make (2 * most) 0; n = 0;
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
      t.ent.(2 * d) <- (pos lsl 5) lor len;
      t.ent.((2 * d) + 1) <- 1;
      t.n <- d + 1;
      set_cell t.slots i (tag h lor (d + 1))
    end
  end
  else
    let d = (c land idx_mask) - 1 in
    if
      c lxor tag h <= idx_mask
      &&
      let key = t.ent.(2 * d) in
      key land 31 = len && slice_equal t.sample (key lsr 5) pos len 0
    then t.ent.((2 * d) + 1) <- t.ent.((2 * d) + 1) + 1
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
  let t = create_candidates sample in
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
    let c = t.ent.((2 * d) + 1) in
    if c >= 3 then begin
      let key = t.ent.(2 * d) in
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

let build_intervals (tokens : string list) : interval array =
  (* All 256 single bytes guarantee total coverage of nonempty strings. *)
  let all =
    List.sort_uniq String.compare
      (List.init 256 (fun i -> String.make 1 (Char.chr i)) @ tokens)
  in
  let arr = Array.of_list all in
  let n = Array.length arr in
  let intervals = ref [] in
  for i = 0 to n - 1 do
    let t = arr.(i) in
    (* Minimal extensions of [t]: walk the sorted successors with prefix
       [t], skipping descendants of an already-kept extension. *)
    let exts = ref [] in
    let last_kept = ref None in
    let j = ref (i + 1) in
    let continue = ref true in
    while !continue && !j < n do
      let u = arr.(!j) in
      if is_prefix ~prefix:t u then begin
        (match !last_kept with
        | Some k when is_prefix ~prefix:k u -> ()
        | Some _ | None ->
          exts := u :: !exts;
          last_kept := Some u);
        incr j
      end
      else continue := false
    done;
    let exts = List.rev !exts in
    (* Gaps of [t, next t) not covered by any extension's prefix range. *)
    let t_hi = next_prefix t in
    let lo = ref (Some t) in
    List.iter
      (fun u ->
        (match !lo with
        | Some lo_s when String.compare lo_s u < 0 ->
          intervals := { lo = lo_s; hi = Some u; token = t } :: !intervals
        | Some _ | None -> ());
        lo := next_prefix u)
      exts;
    (match !lo with
    | Some lo_s when bound_lt (Some lo_s) t_hi ->
      intervals := { lo = lo_s; hi = t_hi; token = t } :: !intervals
    | Some _ | None -> ())
  done;
  let arr = Array.of_list !intervals in
  Array.sort (fun a b -> String.compare a.lo b.lo) arr;
  arr

let of_tokens (tokens : string list) : model =
  let intervals = build_intervals tokens in
  let width = Bitio.width_for (Array.length intervals + 1) in
  { los = Array.map (fun itv -> itv.lo) intervals;
    his = Array.map (fun itv -> itv.hi) intervals;
    tokens = Array.map (fun itv -> itv.token) intervals;
    width }

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
  of_tokens (mine_tokens ~max_tokens ?sample_bytes values)

(* ------------------------------------------------------------------ *)
(* Encoding / decoding                                                 *)
(* ------------------------------------------------------------------ *)

(* Rightmost interval whose [lo] is <= [s]; intervals are disjoint and
   cover all nonempty strings, so this is the containing interval. *)
let find_interval (m : model) (s : string) : int =
  let lo = ref 0 and hi = ref (Array.length m.los - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if String.compare m.los.(mid) s <= 0 then lo := mid else hi := mid - 1
  done;
  if String.compare m.los.(!lo) s > 0 || not (below_hi s m.his.(!lo)) then
    raise (Corrupt "ALM: no covering interval");
  !lo

let compress (m : model) (value : string) : string =
  let w = Bitio.Writer.create ~size:(String.length value) () in
  let rec go r =
    if String.length r > 0 then begin
      let i = find_interval m r in
      let token = m.tokens.(i) in
      if not (is_prefix ~prefix:token r) then
        raise (Corrupt "ALM: interval token is not a prefix");
      Bitio.Writer.add_bits w (i + 1) m.width;
      go (String.sub r (String.length token) (String.length r - String.length token))
    end
  in
  go value;
  Bitio.Writer.contents w

(* Codes are read from an accumulator refilled a byte at a time: [acc]
   holds [nbits] unread bits in its low end. Code 0 is padding, and
   fewer than [width] bits left is the end. A first pass checks the
   codes and sums their token lengths, a second copies the tokens into
   a string of exactly that length. Both are top-level functions of
   their whole state, so a decode allocates only its result. *)
let rec decoded_length m s pos acc nbits total =
  if nbits < m.width then
    if pos < String.length s then
      decoded_length m s (pos + 1) ((acc lsl 8) lor Char.code (String.unsafe_get s pos)) (nbits + 8) total
    else total
  else begin
    let code = (acc lsr (nbits - m.width)) land ((1 lsl m.width) - 1) in
    if code = 0 then total
    else if code > Array.length m.tokens then raise (Corrupt "ALM: bad code")
    else
      decoded_length m s pos acc (nbits - m.width)
        (total + String.length (Array.unsafe_get m.tokens (code - 1)))
  end

let rec copy_tokens m s out pos acc nbits off =
  if nbits < m.width then begin
    if pos < String.length s then
      copy_tokens m s out (pos + 1) ((acc lsl 8) lor Char.code (String.unsafe_get s pos)) (nbits + 8) off
  end
  else begin
    let code = (acc lsr (nbits - m.width)) land ((1 lsl m.width) - 1) in
    if code <> 0 then begin
      let t = Array.unsafe_get m.tokens (code - 1) in
      Bytes.unsafe_blit_string t 0 out off (String.length t);
      copy_tokens m s out pos acc (nbits - m.width) (off + String.length t)
    end
  end

let decompress (m : model) (compressed : string) : string =
  let out = Bytes.create (decoded_length m compressed 0 0 0 0) in
  copy_tokens m compressed out 0 0 0 0;
  Bytes.unsafe_to_string out

let code_width (m : model) = m.width

let code_tokens (m : model) = Array.copy m.tokens

(* ------------------------------------------------------------------ *)
(* Compressed-domain operations                                        *)
(* ------------------------------------------------------------------ *)

(** Order-preserving: compare compressed values directly. *)
let compare_compressed (a : string) (b : string) = String.compare a b

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
   model on storage is just the mined (multi-byte) tokens; the 256
   single-byte tokens are implicit. *)

let model_tokens (m : model) : string list =
  Array.to_list m.tokens
  |> List.filter (fun t -> String.length t > 1)
  |> List.sort_uniq String.compare

let serialize_model (m : model) : string =
  let buf = Buffer.create 1024 in
  let tokens = model_tokens m in
  Buffer.add_uint16_be buf (List.length tokens);
  List.iter
    (fun t ->
      Buffer.add_char buf (Char.chr (String.length t));
      Buffer.add_string buf t)
    tokens;
  Buffer.contents buf

let deserialize_model (s : string) : model =
  let pos = ref 0 in
  let n = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
  pos := 2;
  let tokens =
    List.init n (fun _ ->
        let len = Char.code s.[!pos] in
        let v = String.sub s (!pos + 1) len in
        pos := !pos + 1 + len;
        v)
  in
  of_tokens tokens

let model_size m = String.length (serialize_model m)
