(* Uniform codec layer: every algorithm is described by the tuple
   <d_c, c_s(F), c_a(F), eq, ineq, wild> of §3.2, and exposes
   train / compress / decompress over a shared source model. *)

type algorithm = Huffman_alg | Alm_alg | Arith_alg | Hu_tucker_alg | Bzip_alg | Numeric_alg

let all_algorithms =
  [ Huffman_alg; Alm_alg; Arith_alg; Hu_tucker_alg; Bzip_alg; Numeric_alg ]

let algorithm_name = function
  | Huffman_alg -> "huffman"
  | Alm_alg -> "alm"
  | Arith_alg -> "arith"
  | Hu_tucker_alg -> "hu-tucker"
  | Bzip_alg -> "bzip"
  | Numeric_alg -> "numeric"

let algorithm_of_name = function
  | "huffman" -> Huffman_alg
  | "alm" -> Alm_alg
  | "arith" -> Arith_alg
  | "hu-tucker" -> Hu_tucker_alg
  | "bzip" -> Bzip_alg
  | "numeric" -> Numeric_alg
  | s -> invalid_arg ("unknown algorithm: " ^ s)

(** Algorithmic properties: which predicate classes evaluate in the
    compressed domain (§3.2). *)
type properties = { eq : bool; ineq : bool; wild : bool }

let properties = function
  | Huffman_alg -> { eq = true; ineq = false; wild = true }
  | Alm_alg -> { eq = true; ineq = true; wild = false }
  | Arith_alg -> { eq = true; ineq = true; wild = false }
  | Hu_tucker_alg -> { eq = true; ineq = true; wild = true }
  | Bzip_alg -> { eq = false; ineq = false; wild = false }
  | Numeric_alg -> { eq = true; ineq = true; wild = false }

(** d_c: relative cost of decompressing one container record, the
    constants of the paper's §3.2 cost model (ALM, emitting whole
    tokens, rated below Huffman; arithmetic decoding and bzip's inverse
    BWT the slowest). They are kept as the paper gives them because the
    partitioner's choices, and so the images, depend on them; they are
    not measurements. The measured decode speeds are the [codec_costs]
    experiment of bench/main.ml, whose [xmark-*] rows decode every value
    of the XMark image. *)
let decompression_cost = function
  | Numeric_alg -> 0.5
  | Alm_alg -> 1.0
  | Hu_tucker_alg -> 1.8
  | Huffman_alg -> 2.0
  | Arith_alg -> 4.0
  | Bzip_alg -> 6.0

type model =
  | M_huffman of Huffman.model
  | M_alm of Alm.model
  | M_arith of Arith.model
  | M_hu_tucker of Hu_tucker.model
  | M_bzip
  | M_numeric of Ipack.model

exception Unsupported = Ipack.Unsupported

(* The per-value counter names of each algorithm, built once: a value's
   encode or decode bumps two of them while collection is on. *)
type counter_names = {
  encode_calls : string;
  encoded_bytes : string;
  decode_calls : string;
  decoded_bytes : string;
}

let counter_names =
  let table =
    List.map
      (fun alg ->
        let p = "codec." ^ algorithm_name alg in
        ( alg,
          { encode_calls = p ^ ".encode_calls"; encoded_bytes = p ^ ".encoded_bytes";
            decode_calls = p ^ ".decode_calls"; decoded_bytes = p ^ ".decoded_bytes" } ))
      all_algorithms
  in
  fun alg -> List.assq alg table

let algorithm_of_model = function
  | M_huffman _ -> Huffman_alg
  | M_alm _ -> Alm_alg
  | M_arith _ -> Arith_alg
  | M_hu_tucker _ -> Hu_tucker_alg
  | M_bzip -> Bzip_alg
  | M_numeric _ -> Numeric_alg

(** Train a source model on container values. Raises {!Unsupported} when
    the algorithm cannot represent the values (numeric codec on text). *)
let train (alg : algorithm) (values : string list) : model =
  let build () =
    match alg with
    | Huffman_alg -> M_huffman (Huffman.train values)
    | Alm_alg -> M_alm (Alm.train values)
    | Arith_alg -> M_arith (Arith.train values)
    | Hu_tucker_alg -> M_hu_tucker (Hu_tucker.train values)
    | Bzip_alg -> M_bzip
    | Numeric_alg -> M_numeric (Ipack.train values)
  in
  if not (Xquec_obs.is_enabled ()) then build ()
  else begin
    let name = algorithm_name alg in
    Xquec_obs.Metrics.incr (Printf.sprintf "codec.%s.train_calls" name);
    Xquec_obs.Trace.with_span
      ~name:"codec.train"
      ~attrs:[ ("algorithm", name); ("values", string_of_int (List.length values)) ]
      build
  end

let compress (m : model) (value : string) : string =
  let code =
    match m with
    | M_huffman h -> Huffman.compress h value
    | M_alm a -> Alm.compress a value
    | M_arith a -> Arith.compress a value
    | M_hu_tucker h -> Hu_tucker.compress h value
    | M_bzip -> Bzip.compress value
    | M_numeric n -> Ipack.compress n value
  in
  if Xquec_obs.is_enabled () then begin
    let names = counter_names (algorithm_of_model m) in
    Xquec_obs.Metrics.incr names.encode_calls;
    Xquec_obs.Metrics.incr ~by:(String.length code) names.encoded_bytes
  end;
  code

let decompress (m : model) (compressed : string) : string =
  let value =
    match m with
    | M_huffman h -> Huffman.decompress h compressed
    | M_alm a -> Alm.decompress a compressed
    | M_arith a -> Arith.decompress a compressed
    | M_hu_tucker h -> Hu_tucker.decompress h compressed
    | M_bzip -> Bzip.decompress compressed
    | M_numeric n -> Ipack.decompress n compressed
  in
  if Xquec_obs.is_enabled () then begin
    let names = counter_names (algorithm_of_model m) in
    Xquec_obs.Metrics.incr names.decode_calls;
    Xquec_obs.Metrics.incr ~by:(String.length value) names.decoded_bytes
  end;
  value

(* ------------------------------------------------------------------ *)
(* Block-oriented storage API (repository format v2)                   *)
(* ------------------------------------------------------------------ *)

(* A block payload packs a run of already-compressed container records
   <code, parent> into one byte string: a 1-byte stage flag, then per
   record varint(|code|), the code bytes, varint(parent). When the LZSS
   second stage wins (codes of one path share structure, so it often
   does) the framed body is stored LZ-compressed; tiny payloads skip the
   attempt. Decoding a block is the unit of work the buffer pool caches
   and the unit the executor's min/max pruning avoids. *)

let block_stage_raw = '\000'

let block_stage_lzss = '\001'

(* below this, the LZSS attempt costs more than it can save *)
let block_lzss_threshold = 96

let encode_block (records : (string * int) array) : string =
  let body = Buffer.create 512 in
  Array.iter
    (fun (code, parent) ->
      Rle.add_varint body (String.length code);
      Buffer.add_string body code;
      Rle.add_varint body parent)
    records;
  let raw = Buffer.contents body in
  let payload =
    if String.length raw < block_lzss_threshold then String.make 1 block_stage_raw ^ raw
    else begin
      let lz = Lzss.compress raw in
      if String.length lz < String.length raw then String.make 1 block_stage_lzss ^ lz
      else String.make 1 block_stage_raw ^ raw
    end
  in
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.incr "codec.block.encode_calls";
    Xquec_obs.Metrics.incr ~by:(String.length payload) "codec.block.encoded_bytes";
    if String.length payload > 0 && payload.[0] = block_stage_lzss then
      Xquec_obs.Metrics.incr "codec.block.lzss_blocks"
  end;
  payload

let decode_fail what = failwith ("decode_block: " ^ what)

(* The framed body is parsed where it lies — after the stage byte of a
   raw payload, or from the start of the LZSS output — straight into the
   two result arrays. *)
let decode_block ~(count : int) (payload : string) : string array * int array =
  let plen = String.length payload in
  if plen = 0 then decode_fail "empty payload";
  if count < 0 then decode_fail "negative record count";
  let body, start =
    match payload.[0] with
    | c when c = block_stage_raw -> (payload, 1)
    | c when c = block_stage_lzss -> (Lzss.decompress_at payload 1, 0)
    | _ -> decode_fail "unknown stage flag"
  in
  let blen = String.length body in
  let pos = ref start in
  let codes = Array.make count "" and parents = Array.make count 0 in
  for k = 0 to count - 1 do
    let clen = Rle.take_varint body pos in
    if clen < 0 || clen > blen - !pos then decode_fail "body shorter than its record count";
    Array.unsafe_set codes k (String.sub body !pos clen);
    pos := !pos + clen;
    Array.unsafe_set parents k (Rle.take_varint body pos)
  done;
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.incr "codec.block.decode_calls";
    Xquec_obs.Metrics.incr ~by:plen "codec.block.decoded_payload_bytes"
  end;
  (codes, parents)

let model_size = function
  | M_huffman h -> Huffman.model_size h
  | M_alm a -> Alm.model_size a
  | M_arith a -> Arith.model_size a
  | M_hu_tucker h -> Hu_tucker.model_size h
  | M_bzip -> 0
  | M_numeric n -> Ipack.model_size n

(** Can a predicate of the given class run in the compressed domain? *)
let supports (alg : algorithm) (cls : [ `Eq | `Ineq | `Wild ]) =
  let p = properties alg in
  match cls with `Eq -> p.eq | `Ineq -> p.ineq | `Wild -> p.wild
