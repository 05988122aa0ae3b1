(* Value containers (§2.2): all data values found under the same
   root-to-leaf path are stored together. A container is a sequence of
   records <compressed value, parent pointer>, kept in lexicographic order
   of the compressed values — NOT document order — enabling binary search
   and 1-pass merge joins. With an order-preserving codec the code order
   coincides with the plaintext order; with Huffman it still clusters
   equal values, so equality search works in the compressed domain.

   Since repository format v2 the record sequence is stored as
   fixed-budget BLOCKS (~16 KiB of plaintext per block by default): each
   block carries a header <count, min code, max code, plain bytes,
   payload length> and a payload produced by {!Compress.Codec.encode_block}.
   Blocks are contiguous slices of the sorted sequence, so the header
   min/max ranges are themselves sorted and every access path can prune
   blocks wholesale before decoding anything. Decoded blocks live in the
   shared {!Buffer_pool}; a container never holds decoded records
   directly, which is what makes demand paging real: a predicate that
   touches 2 of 50 blocks decodes 2 blocks. *)

type kind = Text | Attribute

type record = { code : string; parent : int }

(* The container order: by code bytes, then by parent id. *)
let compare_records a b =
  let c = String.compare a.code b.code in
  if c <> 0 then c else Int.compare a.parent b.parent

type block = {
  b_start : int;  (** global index of the block's first record *)
  b_count : int;
  b_min : string;  (** conservative lower bound: [b_min <=] every code in the block *)
  b_max : string;  (** conservative upper bound: [b_max >=] every code in the block *)
  b_exact : bool;
      (** [b_min]/[b_max] are the block's actual first/last codes, not
          capped approximations. False whenever a boundary code is longer
          than {!header_key_cap} — then [b_max] over-estimates (and
          [b_min] under-estimates), so consumers must treat the bounds as
          a superset interval: overlap tests stay sound, but equality or
          containment conclusions require this bit. *)
  b_plain : int;  (** plaintext bytes covered (exact at build, estimated for v1 loads) *)
  b_payload : string;  (** {!Compress.Codec.encode_block} output *)
}

type t = {
  id : int;
  uid : int;  (** process-unique identity, the buffer-pool key of its blocks *)
  heat : Xquec_obs.Ledger.container;  (** its heat row *)
  path : string;  (** root-to-leaf path expression, e.g. "/site/people/person/name/#text" *)
  kind : kind;
  algorithm : Compress.Codec.algorithm;
  model : Compress.Codec.model;
  model_id : int;  (** containers sharing a source model share this id *)
  blocks : block array;
  n_records : int;
  plain_bytes : int;  (** total plaintext bytes (for stats / cost model) *)
  distinct_parents : bool;
      (** no two records share a parent pointer — precomputed at build
          time so bare-element predicates can skip the existence check
          that used to scan every block (stored in the v2 image,
          recomputed on v1 load) *)
  sorted_run : bool;
      (** the record sequence was verified (at build / load) to be sorted
          by (code, parent) — the precondition for header-interval merge
          joins. Verified by an adjacent-pair scan at build, persisted in
          the v2 flags byte; images written before the flag existed load
          as [false] (conservatively disabling the block join on them). *)
  block_size : int;
      (** target plaintext bytes per block this container was chunked
          with — per container since the adaptive-sizing pass, persisted
          behind flags bit 3 when it differs from the built-in default *)
  compaction_epoch : int;
      (** how many times the compactor has re-blocked this container
          (0 at build; persisted with [block_size]) *)
}

let length t = t.n_records

(* A fresh pool uid and the heat row the container owns under it. *)
let fresh_identity ~path ~blocks =
  let uid = Buffer_pool.fresh_uid () in
  (uid, Xquec_obs.Ledger.row ~uid ~label:path ~blocks:(Array.length blocks))

let block_count t = Array.length t.blocks

(* ------------------------------------------------------------------ *)
(* Block size configuration                                            *)
(* ------------------------------------------------------------------ *)

(* Target plaintext bytes per block. Small enough that selective
   predicates skip most of a large container, large enough that the
   varint framing and the pool bookkeeping stay negligible. *)
let default_block_size_ref = ref 16384

(* The wire format's notion of "the default": a container whose
   block_size equals this constant (and whose compaction epoch is 0)
   serializes without the flags-bit-3 extension, which is what keeps
   re-saves of pre-extension images byte-exact. Deliberately a constant,
   not [!default_block_size_ref] — serialization must not depend on
   ambient CLI configuration. *)
let builtin_block_size = 16384

let set_default_block_size n =
  if n < 1 then invalid_arg "Container.set_default_block_size";
  default_block_size_ref := n

let default_block_size () = !default_block_size_ref

(* Clamp bounds for any adaptive choice: below ~1 KiB blocks are all
   header and the binary searches stop amortizing; above 256 KiB a
   single stray predicate decodes more than the old whole-container
   worst case used to. *)
let min_block_size = 1024

let max_block_size = 262144

let clamp_block_size n = min max_block_size (max min_block_size n)

(* ------------------------------------------------------------------ *)
(* Block construction / decoding                                       *)
(* ------------------------------------------------------------------ *)

(* Header keys are conservative bounds, not exact codes: b_min is a
   prefix of the block's first code (so b_min <= every code) and b_max a
   lexicographic upper bound derived from its last code (so b_max >=
   every code). Capping them keeps headers tiny even for codecs with
   long codes (bzip stores whole compressed values); pruning merely
   becomes a superset test, and the in-block binary searches on real
   codes keep results exact. *)
let header_key_cap = 8

let bound_min (s : string) : string =
  if String.length s <= header_key_cap then s else String.sub s 0 header_key_cap

let bound_max (s : string) : string =
  if String.length s <= header_key_cap then s
  else begin
    (* increment the last non-0xff byte of the capped prefix, producing a
       short string strictly greater than anything prefixed by it *)
    let rec last_incrementable i = if i < 0 then None else if s.[i] <> '\xff' then Some i else last_incrementable (i - 1) in
    match last_incrementable (header_key_cap - 1) with
    | Some i -> String.sub s 0 i ^ String.make 1 (Char.chr (Char.code s.[i] + 1))
    | None -> s (* capped prefix is all 0xff: keep the exact code *)
  end

(* Chunk sorted records into blocks: greedy fill while the accumulated
   plaintext stays under the budget (every block holds >= 1 record).
   [plain_size i] is the plaintext length of record i. *)
let blocks_of_records ~block_size ~(plain_size : int -> int) (records : record array) :
    block array =
  let n = Array.length records in
  if n = 0 then [||]
  else begin
    let out = ref [] in
    let start = ref 0 in
    while !start < n do
      let stop = ref (!start + 1) in
      let acc = ref (plain_size !start) in
      while
        !stop < n
        && !acc + plain_size !stop <= block_size
      do
        acc := !acc + plain_size !stop;
        incr stop
      done;
      let count = !stop - !start in
      let slice = Array.init count (fun i ->
          let r = records.(!start + i) in
          (r.code, r.parent))
      in
      let first = records.(!start).code and last = records.(!stop - 1).code in
      let b_min = bound_min first and b_max = bound_max last in
      out :=
        {
          b_start = !start;
          b_count = count;
          b_min;
          b_max;
          (* exact iff neither bound was capped: the header carries the
             real boundary codes, not approximations *)
          b_exact = b_min = first && b_max = last;
          b_plain = !acc;
          b_payload = Compress.Codec.encode_block slice;
        }
        :: !out;
      start := !stop
    done;
    Array.of_list (List.rev !out)
  end

(* ------------------------------------------------------------------ *)
(* Header-only view                                                    *)
(* ------------------------------------------------------------------ *)

type header = {
  h_block : int;
  h_start : int;
  h_count : int;
  h_min : string;
  h_max : string;
  h_exact : bool;
  h_payload_bytes : int;
}

(* Pure header projection: no payload fetch, no pool traffic. The block
   interval join reads both sides through this before deciding what (if
   anything) to decode. *)
let header (t : t) (i : int) : header =
  let b = t.blocks.(i) in
  {
    h_block = i;
    h_start = b.b_start;
    h_count = b.b_count;
    h_min = b.b_min;
    h_max = b.b_max;
    h_exact = b.b_exact;
    h_payload_bytes = String.length b.b_payload;
  }

let headers (t : t) : header array = Array.init (Array.length t.blocks) (header t)

(* Kept for bench/e2e/workloads.ml and layers.ml; read-ahead is gone. *)
let set_prefetch_depth (_ : int) = ()

(* Decode block [i] through the buffer pool, on the calling domain. A
   container never changes after it is built, so (uid, block index)
   names one payload for as long as the uid lives. The fetch and the
   decode are charged to the calling domain's open ledger; the limit
   check at entry is what trips an exhausted one. *)
let fetch_block ?admission (t : t) (i : int) : Buffer_pool.decoded =
  Xquec_obs.Ledger.note_fetch t.heat ~blk:i;
  let b = t.blocks.(i) in
  Buffer_pool.fetch ?admission ~uid:t.uid ~blk:i (fun () ->
      Xquec_obs.Trace.with_span ~name:"container.decode"
        ~attrs:[ ("path", t.path); ("block", string_of_int i) ]
      @@ fun () ->
      let payload = String.length b.b_payload in
      let codes, parents = Compress.Codec.decode_block ~count:b.b_count b.b_payload in
      let d_bytes = Array.fold_left (fun acc c -> acc + String.length c + 16) 64 codes in
      Xquec_obs.Ledger.note_decode t.heat ~bytes:payload;
      { Buffer_pool.codes; parents; d_bytes })

(* Blocks [b0, b1] (inclusive), in order, each through [fetch_block]. *)
let fetch_blocks ?admission (t : t) ~(b0 : int) ~(b1 : int) :
    Buffer_pool.decoded array =
  if b1 < b0 then [||] else Array.init (b1 - b0 + 1) (fun k -> fetch_block ?admission t (b0 + k))

let compressed_bytes (t : t) =
  Array.fold_left (fun acc b -> acc + String.length b.b_payload) 0 t.blocks

(* Publish per-container size + codec choice under the metric naming
   scheme "container.<path>.*" (no-ops while telemetry is disabled). *)
let publish_metrics (t : t) : unit =
  if Xquec_obs.is_enabled () then begin
    let pfx = "container." ^ t.path in
    Xquec_obs.Metrics.set_gauge (pfx ^ ".encoded_bytes") (float_of_int (compressed_bytes t));
    Xquec_obs.Metrics.set_gauge (pfx ^ ".plain_bytes") (float_of_int t.plain_bytes);
    Xquec_obs.Metrics.set_gauge (pfx ^ ".records") (float_of_int t.n_records);
    Xquec_obs.Metrics.set_gauge (pfx ^ ".blocks") (float_of_int (Array.length t.blocks))
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* One pass over the (still plaintext-side) records at build time; the
   executor reads the resulting bit instead of scanning every block to
   re-derive it per query. *)
let all_parents_distinct (records : record array) : bool =
  let seen = Hashtbl.create (Array.length records * 2 + 1) in
  try
    Array.iter
      (fun r ->
        if Hashtbl.mem seen r.parent then raise Exit else Hashtbl.add seen r.parent ())
      records;
    true
  with Exit -> false

(* Adjacent-pair verification that the sequence really is sorted by
   (code, parent). O(n) over in-memory records at build/load time — the
   merge-join path trusts this bit instead of re-checking per query. *)
let is_sorted_run (records : record array) : bool =
  let n = Array.length records in
  let rec go i =
    i >= n
    || (compare_records records.(i - 1) records.(i) <= 0 && go (i + 1))
  in
  go 1

(* Assemble a container from records already sorted by (code, parent);
   [plain_size i] is record [i]'s plaintext length for block budgeting. *)
let of_sorted_records ~block_size ~plain_size ~id ~path ~kind ~algorithm ~model ~model_id
    ~plain_bytes (records : record array) : t =
  let blocks = blocks_of_records ~block_size ~plain_size records in
  let uid, heat = fresh_identity ~path ~blocks in
  let t =
    {
      id;
      uid;
      heat;
      path;
      kind;
      algorithm;
      model;
      model_id;
      blocks;
      n_records = Array.length records;
      plain_bytes;
      distinct_parents = all_parents_distinct records;
      sorted_run = is_sorted_run records;
      block_size;
      compaction_epoch = 0;
    }
  in
  publish_metrics t;
  t

(** The one builder: encode every value with [model], sort on (record,
    input position), chunk into blocks, and return the container with
    the permutation input position -> record index. *)
let of_values ?block_size ~id ~path ~kind ~algorithm ~model ~model_id
    (pairs : (string * int) list) : t * int array =
  Xquec_obs.Trace.with_span ~name:"container.encode" ~attrs:[ ("path", path) ] @@ fun () ->
  let block_size = Option.value ~default:!default_block_size_ref block_size in
  let triples =
    List.mapi
      (fun pos (v, parent) ->
        ({ code = Compress.Codec.compress model v; parent }, pos, String.length v))
      pairs
    |> Array.of_list
  in
  Array.sort
    (fun (a, pa, _) (b, pb, _) ->
      let c = compare_records a b in
      if c <> 0 then c else Int.compare pa pb)
    triples;
  let perm = Array.make (Array.length triples) 0 in
  Array.iteri (fun idx (_, pos, _) -> perm.(pos) <- idx) triples;
  let plain_bytes = Array.fold_left (fun acc (_, _, len) -> acc + len) 0 triples in
  let sizes = Array.map (fun (_, _, len) -> max 1 len) triples in
  let t =
    of_sorted_records ~block_size ~plain_size:(Array.get sizes) ~id ~path ~kind ~algorithm
      ~model ~model_id ~plain_bytes
      (Array.map (fun (r, _, _) -> r) triples)
  in
  (t, perm)

(** All (plaintext, parent) pairs, decompressed, in record order. *)
let dump (t : t) : (string * int) list =
  let ds = fetch_blocks t ~b0:0 ~b1:(Array.length t.blocks - 1) in
  List.concat
    (List.init (Array.length t.blocks) (fun i ->
         let { Buffer_pool.codes; parents; _ } = ds.(i) in
         List.init (Array.length codes) (fun off ->
             (Compress.Codec.decompress t.model codes.(off), parents.(off)))))

(* Build-time reads bypass the pool and every counter: building a
   repository must leave the query cache and its accounting as it found
   them. *)
let read_block (t : t) (i : int) : string array * int array =
  let b = t.blocks.(i) in
  Compress.Codec.decode_block ~count:b.b_count b.b_payload

(* Every raw compressed record plus a per-record plaintext-size
   estimate, read with [read_block]: outside the pool and its
   accounting. Exact per-record sizes are gone after
   build; the per-block average is what the original chunking
   preserved, and it is what keeps re-chunking deterministic. *)
let records_with_sizes (t : t) : record array * int array =
  let records = Array.make t.n_records { code = ""; parent = 0 } in
  let sizes = Array.make t.n_records 1 in
  Array.iteri
    (fun bi b ->
      let codes, parents = read_block t bi in
      let avg = max 1 (b.b_plain / max 1 b.b_count) in
      for off = 0 to b.b_count - 1 do
        records.(b.b_start + off) <- { code = codes.(off); parent = parents.(off) };
        sizes.(b.b_start + off) <- avg
      done)
    t.blocks;
  (records, sizes)

(** Build and return a {e fresh} container (new pool uid, same
    compaction epoch) with the same records re-chunked at [block_size],
    leaving [t] untouched. In-flight queries holding [t] keep reading
    its blocks; {!Repository.replace_container} swaps the fresh one in. *)
let reblocked (t : t) ~(block_size : int) : t =
  if block_size < 1 then invalid_arg "Container.reblocked";
  let records, sizes = records_with_sizes t in
  let blocks = blocks_of_records ~block_size ~plain_size:(fun i -> sizes.(i)) records in
  let uid, heat = fresh_identity ~path:t.path ~blocks in
  let fresh = { t with uid; heat; blocks; block_size } in
  publish_metrics fresh;
  fresh

(* ------------------------------------------------------------------ *)
(* Access paths                                                        *)
(* ------------------------------------------------------------------ *)

(* Index of the block containing global record index [i]. *)
let block_of_index (t : t) (i : int) : int =
  let lo = ref 0 and hi = ref (Array.length t.blocks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.blocks.(mid).b_start <= i then lo := mid else hi := mid - 1
  done;
  !lo

(** Random access to one record: decodes (at most) the one block that
    holds it, through the buffer pool. *)
let get (t : t) (i : int) : record =
  if i < 0 || i >= t.n_records then invalid_arg "Container.get";
  let bi = block_of_index t i in
  let d = fetch_block t bi in
  let off = i - t.blocks.(bi).b_start in
  { code = d.Buffer_pool.codes.(off); parent = d.Buffer_pool.parents.(off) }

(** ContScan: all records in compressed-value order (decodes every
    block — the access path min/max pruning exists to avoid). Blocks it
    decodes enter the buffer pool at the LRU tail ({!Buffer_pool.Tail})
    so a full scan cannot flush the hot working set. *)
let scan (t : t) : record array =
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.incr "container.scans";
    Xquec_obs.Metrics.incr ~by:t.n_records "container.scanned_records"
  end;
  let out = Array.make t.n_records { code = ""; parent = 0 } in
  let ds =
    fetch_blocks ~admission:Buffer_pool.Tail t ~b0:0 ~b1:(Array.length t.blocks - 1)
  in
  Array.iteri
    (fun bi b ->
      let d = ds.(bi) in
      for off = 0 to b.b_count - 1 do
        out.(b.b_start + off) <-
          { code = d.Buffer_pool.codes.(off); parent = d.Buffer_pool.parents.(off) }
      done)
    t.blocks;
  out

(* --- binary searches -------------------------------------------------- *)

(* [x] lies below a lower bound [code]: [x < code], or [x <= code] when
   the bound is [strict] (excludes [code] itself). *)
let below ~strict (x : string) (code : string) : bool =
  let c = String.compare x code in
  c < 0 || (strict && c = 0)

(* First block whose max code is not below the lower bound [code];
   Array.length blocks if none. Valid because blocks are contiguous
   sorted slices. *)
let first_block_max ~strict (t : t) (code : string) : int =
  let lo = ref 0 and hi = ref (Array.length t.blocks) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below ~strict t.blocks.(mid).b_max code then lo := mid + 1 else hi := mid
  done;
  !lo

(* Last block whose min code is within the upper bound [code] ([<], or
   [<=] when not [strict]); -1 if none. *)
let last_block_min ~strict (t : t) (code : string) : int =
  let lo = ref (-1) and hi = ref (Array.length t.blocks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if below ~strict:(not strict) t.blocks.(mid).b_min code then lo := mid else hi := mid - 1
  done;
  !lo

(* First offset of a decoded block whose code is not below the lower
   bound [code]. *)
let in_block ~strict (d : Buffer_pool.decoded) (code : string) : int =
  let codes = d.Buffer_pool.codes in
  let lo = ref 0 and hi = ref (Array.length codes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below ~strict codes.(mid) code then lo := mid + 1 else hi := mid
  done;
  !lo

(* Compressed payload bytes of the blocks OUTSIDE [b0, b1] — the ones a
   pruning access path skipped ([b1 < b0] means all of them). Reported
   to the pool alongside the skipped-block count so decoded-vs-pruned
   byte ratios come out in the same (compressed payload) unit. *)
let pruned_payload_bytes (t : t) ~(b0 : int) ~(b1 : int) : int =
  let total = ref 0 in
  Array.iteri
    (fun i b -> if i < b0 || i > b1 then total := !total + String.length b.b_payload)
    t.blocks;
  !total

(* Report [blocks] of [t], [bytes] of stored payload, as skipped from
   headers alone, to the query's ledger. *)
let note_skipped (t : t) ~(blocks : int) ~(bytes : int) : unit =
  Xquec_obs.Ledger.note_skip t.heat ~blocks ~bytes

(* Report the blocks outside [b0, b1] as header-skipped. *)
let note_pruned (t : t) ~(b0 : int) ~(b1 : int) (blocks : int) : unit =
  note_skipped t ~blocks ~bytes:(pruned_payload_bytes t ~b0 ~b1)

type bound = [ `Incl of string | `Excl of string ]

(** ContAccess with an interval criterion on compressed codes: the
    candidate blocks are chosen from headers alone, and only they are
    decoded. A block whose header bounds do not prove it inside the
    interval is cut by an in-block binary search, so capped
    (conservative) bounds never admit a record outside it. *)
let lookup_range (t : t) ?(lo : bound option) ?(hi : bound option) () : record list =
  Xquec_obs.Metrics.incr "container.lookup_range";
  (* (code, strict): a strict bound excludes the code itself *)
  let split = Option.map (function `Incl c -> (c, false) | `Excl c -> (c, true)) in
  let lo = split lo and hi = split hi in
  let nblocks = Array.length t.blocks in
  if nblocks = 0 then []
  else begin
    let b0 = match lo with None -> 0 | Some (c, strict) -> first_block_max ~strict t c in
    let b1 =
      match hi with None -> nblocks - 1 | Some (c, strict) -> last_block_min ~strict t c
    in
    if b0 >= nblocks || b1 < b0 then begin
      note_pruned t ~b0:0 ~b1:(-1) nblocks;
      []
    end
    else begin
      note_pruned t ~b0 ~b1 (nblocks - (b1 - b0 + 1));
      let ds = fetch_blocks t ~b0 ~b1 in
      List.concat
        (List.init (b1 - b0 + 1) (fun k ->
             let b = t.blocks.(b0 + k) in
             let d = ds.(k) in
             (* b_min <= every code and b_max >= every code, so a block
                whose bounds clear the interval's needs no search *)
             let off_lo =
               match lo with
               | Some (c, strict) when below ~strict b.b_min c -> in_block ~strict d c
               | _ -> 0
             in
             let off_hi =
               match hi with
               | Some (c, strict) when not (below ~strict:(not strict) b.b_max c) ->
                 in_block ~strict:(not strict) d c
               | _ -> b.b_count
             in
             List.init (max 0 (off_hi - off_lo)) (fun j ->
                 {
                   code = d.Buffer_pool.codes.(off_lo + j);
                   parent = d.Buffer_pool.parents.(off_lo + j);
                 })))
    end
  end

(** ContAccess with an equality criterion. Valid whenever the algorithm
    supports [eq]. *)
let lookup_eq (t : t) (code : string) : record list =
  lookup_range t ~lo:(`Incl code) ~hi:(`Incl code) ()

let decompress_record (t : t) (r : record) : string =
  Compress.Codec.decompress t.model r.code

(** Compress a query constant against this container's source model, for
    compressed-domain comparisons. *)
let compress_constant (t : t) (v : string) : string =
  Compress.Codec.compress t.model v

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* v2 container layout (inside a repository v2 image):
     varint id | varint |path| path | kind byte ('T'/'A') | flags byte
     varint |alg| alg | varint model_id | varint plain_bytes
     varint n_records | varint n_blocks
   Flags: bit 0 = parents all distinct (precomputed at build time);
          bit 1 = record sequence verified sorted by (code, parent);
          bit 2 = per-block flags byte present (below);
          bit 3 = adaptive-sizing extension present: two varints
                  <block_size, compaction_epoch> follow the flags byte.
   The extension is emitted ONLY when block_size differs from the
   built-in default (16384) or the compaction epoch is non-zero, so
   every image written before the extension existed — and every re-save
   of one — stays byte-identical.
     [varint block_size | varint compaction_epoch   if bit 3]
     then per block:
       varint b_count | [flags byte if container bit 2]
       varint |b_min| b_min | varint |b_max| b_max
       varint b_plain | varint |payload| payload
   Per-block flags: bit 0 = header bounds exact (uncapped codes).
   Images written before bits 1-2 existed parse with both clear:
   [sorted_run] and every [b_exact] load as false, which only disables
   optimizations — never correctness. Block payloads are stored
   verbatim, which makes save -> load -> save byte-exact. *)

let serialize buf (t : t) =
  let add_varint = Compress.Rle.add_varint in
  let add_str s =
    add_varint buf (String.length s);
    Buffer.add_string buf s
  in
  add_varint buf t.id;
  add_str t.path;
  Buffer.add_char buf (match t.kind with Text -> 'T' | Attribute -> 'A');
  let adaptive = t.block_size <> builtin_block_size || t.compaction_epoch <> 0 in
  let flags =
    (if t.distinct_parents then 1 else 0)
    lor (if t.sorted_run then 2 else 0)
    lor 4 (* per-block flags byte present *)
    lor if adaptive then 8 else 0
  in
  Buffer.add_char buf (Char.chr flags);
  if adaptive then begin
    add_varint buf t.block_size;
    add_varint buf t.compaction_epoch
  end;
  add_str (Compress.Codec.algorithm_name t.algorithm);
  add_varint buf t.model_id;
  add_varint buf t.plain_bytes;
  add_varint buf t.n_records;
  add_varint buf (Array.length t.blocks);
  Array.iter
    (fun b ->
      add_varint buf b.b_count;
      Buffer.add_char buf (Char.chr (if b.b_exact then 1 else 0));
      add_str b.b_min;
      add_str b.b_max;
      add_varint buf b.b_plain;
      add_str b.b_payload)
    t.blocks

let deserialize ~(models : (int, Compress.Codec.model) Hashtbl.t) (s : string) (pos : int) :
    t * int =
  let read_varint = Compress.Rle.read_varint in
  let pos = ref pos in
  let varint () =
    let (v, p) = read_varint s !pos in
    pos := p;
    v
  in
  let str () =
    let n = varint () in
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let id = varint () in
  let path = str () in
  let kind = match s.[!pos] with 'T' -> Text | 'A' -> Attribute | _ -> failwith "bad kind" in
  incr pos;
  let flags = Char.code s.[!pos] in
  let distinct_parents = flags land 1 <> 0 in
  let sorted_run = flags land 2 <> 0 in
  let block_flags = flags land 4 <> 0 in
  incr pos;
  let block_size, compaction_epoch =
    if flags land 8 <> 0 then begin
      let bs = varint () in
      let ep = varint () in
      (bs, ep)
    end
    else (builtin_block_size, 0)
  in
  let algorithm = Compress.Codec.algorithm_of_name (str ()) in
  let model_id = varint () in
  let plain_bytes = varint () in
  let n_records = varint () in
  let n_blocks = varint () in
  let start = ref 0 in
  let blocks =
    Array.init n_blocks (fun _ ->
        let b_count = varint () in
        let b_exact =
          if block_flags then begin
            let f = Char.code s.[!pos] in
            incr pos;
            f land 1 <> 0
          end
          else false (* legacy image: assume capped (conservative) *)
        in
        let b_min = str () in
        let b_max = str () in
        let b_plain = varint () in
        let b_payload = str () in
        let b =
          { b_start = !start; b_count; b_min; b_max; b_exact; b_plain; b_payload }
        in
        start := !start + b_count;
        b)
  in
  if !start <> n_records then failwith "container: block counts disagree with record count";
  let model = Hashtbl.find models model_id in
  let uid, heat = fresh_identity ~path ~blocks in
  let t =
    {
      id;
      uid;
      heat;
      path;
      kind;
      algorithm;
      model;
      model_id;
      blocks;
      n_records;
      plain_bytes;
      distinct_parents;
      sorted_run;
      block_size;
      compaction_epoch;
    }
  in
  (t, !pos)

(* v1 layout: records inline, one <code, parent> pair after another. The
   records come back in sorted order (v1 containers were sorted too), so
   re-blocking preserves every invariant; per-record plaintext sizes are
   estimated from the container average. *)
let deserialize_v1 ~(models : (int, Compress.Codec.model) Hashtbl.t) (s : string) (pos : int) :
    t * int =
  let read_varint = Compress.Rle.read_varint in
  let (id, pos) = read_varint s pos in
  let (plen, pos) = read_varint s pos in
  let path = String.sub s pos plen in
  let pos = pos + plen in
  let kind = match s.[pos] with 'T' -> Text | 'A' -> Attribute | _ -> failwith "bad kind" in
  let pos = pos + 1 in
  let (alen, pos) = read_varint s pos in
  let algorithm = Compress.Codec.algorithm_of_name (String.sub s pos alen) in
  let pos = pos + alen in
  let (model_id, pos) = read_varint s pos in
  let (plain_bytes, pos) = read_varint s pos in
  let (n, pos) = read_varint s pos in
  let pos = ref pos in
  let records =
    Array.init n (fun _ ->
        let (clen, p) = read_varint s !pos in
        let code = String.sub s p clen in
        let (parent, p) = read_varint s (p + clen) in
        pos := p;
        { code; parent })
  in
  let model = Hashtbl.find models model_id in
  let avg = if n = 0 then 1 else max 1 (plain_bytes / n) in
  let t =
    of_sorted_records ~block_size:!default_block_size_ref ~plain_size:(fun _ -> avg) ~id ~path ~kind
      ~algorithm ~model ~model_id ~plain_bytes records
  in
  (t, !pos)
