(* Tests for the compression substrate: round-trips for every codec,
   order-preservation and compressed-domain predicates, model
   serialization, and the bzip pipeline stages. *)

open Compress

let sample_values =
  [
    "there"; "their"; "these"; "the"; "theology"; "zebra"; "apple"; "banana";
    "a"; ""; "mango mango mango"; "Shakespeare wrote many plays";
    "creditcard"; "2001-05-04"; "united states"; "gold ring";
  ]

let words =
  [ "the"; "quick"; "brown"; "fox"; "jumps"; "over"; "lazy"; "dog"; "auction";
    "person"; "item"; "europe"; "gold"; "silver"; "bidder"; "increase" ]

let big_text =
  let buf = Buffer.create 4096 in
  let state = ref 12345 in
  for _ = 1 to 800 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    Buffer.add_string buf (List.nth words (!state mod List.length words));
    Buffer.add_char buf ' '
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_string =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))

let gen_text =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'e'; 't'; 'h'; ' '; 'r'; 's' ]) (int_range 0 30))

let gen_pair g = QCheck2.Gen.pair g g

(* ------------------------------------------------------------------ *)
(* Bitio                                                               *)
(* ------------------------------------------------------------------ *)

let test_bitio_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w 0b101 3;
  Bitio.Writer.add_bits w 0xABCD 16;
  Bitio.Writer.add_bit w true;
  let s = Bitio.Writer.contents w in
  let r = Bitio.Reader.of_string s in
  Alcotest.(check int) "3 bits" 0b101 (Bitio.Reader.read_bits r 3);
  Alcotest.(check int) "16 bits" 0xABCD (Bitio.Reader.read_bits r 16);
  Alcotest.(check bool) "1 bit" true (Bitio.Reader.read_bit r)

let test_bitio_width () =
  Alcotest.(check int) "w1" 1 (Bitio.width_for 2);
  Alcotest.(check int) "w2" 2 (Bitio.width_for 3);
  Alcotest.(check int) "w8" 8 (Bitio.width_for 256);
  Alcotest.(check int) "w9" 9 (Bitio.width_for 257)

let prop_bitio =
  QCheck2.Test.make ~name:"bitio roundtrip" ~count:300
    QCheck2.Gen.(pair (small_list (pair int (int_range 1 30))) (int_range 1 30))
    (fun (specs, extra) ->
      let specs = List.map (fun (v, w) -> (v land ((1 lsl w) - 1), w)) specs in
      let w = Bitio.Writer.create () in
      List.iter (fun (v, width) -> Bitio.Writer.add_bits w v width) specs;
      let bits = Bitio.Writer.bit_length w in
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      List.for_all (fun (v, width) -> Bitio.Reader.read_bits r width = v) specs
      && Bitio.Reader.bits_remaining r = (8 - (bits mod 8)) mod 8
      (* a read past the end raises and consumes nothing *)
      &&
      let left = Bitio.Reader.bits_remaining r in
      (match Bitio.Reader.read_bits r (left + extra) with
       | _ -> false
       | exception Bitio.Reader.Out_of_bits -> true)
      && Bitio.Reader.bits_remaining r = left)

(* ------------------------------------------------------------------ *)
(* Per-codec round-trip + property suites                              *)
(* ------------------------------------------------------------------ *)

let roundtrip_tests name train compress decompress =
  let model = train sample_values in
  let rt v =
    Alcotest.(check string)
      (Printf.sprintf "%s roundtrip %S" name v)
      v
      (decompress model (compress model v))
  in
  Alcotest.test_case (name ^ " roundtrips") `Quick (fun () ->
      List.iter rt sample_values;
      rt "unseen value entirely new";
      rt (String.make 200 'x');
      rt "\x00\x01\xff binary \xfe")

let prop_roundtrip name gen train compress decompress =
  QCheck2.Test.make ~name:(name ^ " roundtrip (random)") ~count:300 gen (fun v ->
      let model = train sample_values in
      decompress model (compress model v) = v)

(* Training happens once per property run to keep tests fast. *)
let huffman_model = lazy (Huffman.train sample_values)
let alm_model = lazy (Alm.train sample_values)
let arith_model = lazy (Arith.train sample_values)
let hu_model = lazy (Hu_tucker.train sample_values)

let prop_cached name gen f = QCheck2.Test.make ~name ~count:400 gen f

(* --- Huffman --- *)

let test_huffman_equality () =
  let m = Lazy.force huffman_model in
  let a = Huffman.compress m "gold ring" in
  let b = Huffman.compress m "gold ring" in
  let c = Huffman.compress m "gold rings" in
  Alcotest.(check bool) "equal" true (Huffman.equal_compressed a b);
  Alcotest.(check bool) "not equal" false (Huffman.equal_compressed a c)

let test_huffman_prefix () =
  let m = Lazy.force huffman_model in
  let v = Huffman.compress m "gold ring" in
  let yes = Huffman.compress_prefix m "gold" in
  let no = Huffman.compress_prefix m "silver" in
  Alcotest.(check bool) "prefix matches" true (Huffman.matches_prefix ~prefix_bits:yes v);
  Alcotest.(check bool) "prefix rejects" false (Huffman.matches_prefix ~prefix_bits:no v)

let prop_huffman_prefix =
  prop_cached "huffman prefix-wildcard agrees with plaintext" (gen_pair gen_text)
    (fun (v, p) ->
      let m = Lazy.force huffman_model in
      let compressed = Huffman.compress m v in
      let prefix_bits = Huffman.compress_prefix m p in
      let plain =
        String.length p <= String.length v && String.sub v 0 (String.length p) = p
      in
      Huffman.matches_prefix ~prefix_bits compressed = plain)

let test_huffman_model_serial () =
  let m = Lazy.force huffman_model in
  let m' = Huffman.deserialize_model (Huffman.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v (Huffman.decompress m' (Huffman.compress m v)))
    sample_values

let test_huffman_compresses () =
  let m = Huffman.train [ big_text ] in
  let c = Huffman.compress m big_text in
  Alcotest.(check bool) "smaller than input" true
    (String.length c < String.length big_text)

(* --- ALM --- *)

let test_alm_fig2 () =
  (* The paper's Fig. 2 scenario: "the" must receive several codes around
     the longer token "there", and order must be preserved. *)
  let m = Alm.of_tokens [ "the"; "there"; "ir"; "se" ] in
  let enc = Alm.compress m in
  let check_lt a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s compressed" a b)
      true
      (String.compare (enc a) (enc b) < 0)
  in
  check_lt "their" "there";
  check_lt "there" "these";
  check_lt "the" "their";
  check_lt "the" "there";
  List.iter
    (fun v -> Alcotest.(check string) "fig2 roundtrip" v (Alm.decompress m (enc v)))
    [ "their"; "there"; "these"; "the"; "th"; "t"; "" ]

let prop_alm_order =
  prop_cached "alm order preservation" (gen_pair gen_text) (fun (a, b) ->
      let m = Lazy.force alm_model in
      let ca = Alm.compress m a and cb = Alm.compress m b in
      compare (String.compare ca cb) 0 = compare (String.compare a b) 0)

let prop_alm_order_binary =
  prop_cached "alm order preservation (binary)" (gen_pair gen_string) (fun (a, b) ->
      let m = Lazy.force alm_model in
      let ca = Alm.compress m a and cb = Alm.compress m b in
      compare (String.compare ca cb) 0 = compare (String.compare a b) 0)

(* The previous token miner, kept as the oracle for [Alm.mine_tokens]:
   one [String.sub] per candidate, counted in a [Hashtbl], ties left in
   [Hashtbl.fold] order by the stable sort. The table is created
   unrandomized so the oracle is the same under OCAMLRUNPARAM=R. *)
let oracle_mine_tokens ~max_tokens ~sample_bytes (values : string list) : string list =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create ~random:false 4096 in
  let budget = ref sample_bytes in
  let lengths = [ 2; 3; 4; 5; 6; 8; 10; 12; 16; 20; 24 ] in
  let scan v =
    let n = String.length v in
    budget := !budget - n;
    for i = 0 to n - 2 do
      List.iter
        (fun l ->
          if i + l <= n then begin
            let sub = String.sub v i l in
            match Hashtbl.find_opt counts sub with
            | Some r -> incr r
            | None ->
              if Hashtbl.length counts < 1 lsl 18 then Hashtbl.add counts sub (ref 1)
          end)
        lengths
    done
  in
  let rec sample = function
    | [] -> ()
    | v :: rest ->
      if !budget > 0 then begin
        scan v;
        sample rest
      end
  in
  sample values;
  let scored =
    Hashtbl.fold
      (fun tok r acc ->
        if !r >= 3 then ((!r * ((2 * String.length tok) - 3)) - (2 * String.length tok), tok) :: acc
        else acc)
      counts []
  in
  let sorted = List.sort (fun (s, _) (s', _) -> compare s' s) scored in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, tok) :: rest -> tok :: take (n - 1) rest
  in
  take max_tokens sorted

(* Small alphabets make many candidates tie in score at the cutoff, so
   the tie order decides which of them are kept. *)
let prop_alm_miner_oracle =
  let alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" in
  let gen =
    QCheck2.Gen.(
      oneofl [ "ab"; "abcdefgh "; alnum ] >>= fun alphabet ->
      let value =
        string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1)))
          (int_bound 60)
      in
      triple (list_size (int_bound 300) value) (int_range 1 64) (int_range 1 8000))
  in
  QCheck2.Test.make ~name:"alm miner matches the oracle" ~count:300 gen
    (fun (values, max_tokens, sample_bytes) ->
      Alm.mine_tokens ~max_tokens ~sample_bytes values
      = oracle_mine_tokens ~max_tokens ~sample_bytes values)

(* 2000 random 500-byte values: about a million offsets, far more
   distinct candidates than the 2^18 the miner counts, so which ones the
   cap keeps decides the result. *)
let test_alm_miner_cap () =
  let state = Random.State.make [| 18 |] in
  let values =
    List.init 2000 (fun _ ->
        String.init 500 (fun _ -> Char.chr (Char.code 'a' + Random.State.int state 26)))
  in
  let max_tokens = 512 and sample_bytes = 1 lsl 20 in
  Alcotest.(check (list string)) "same tokens as the oracle"
    (oracle_mine_tokens ~max_tokens ~sample_bytes values)
    (Alm.mine_tokens ~max_tokens ~sample_bytes values)

let test_alm_prefix_range () =
  let m = Lazy.force alm_model in
  let (lo, hi) = Alm.prefix_range m "the" in
  let inside = Alm.compress m "theology" in
  let outside = Alm.compress m "tha" in
  let matches c =
    String.compare lo c <= 0
    && match hi with None -> true | Some h -> String.compare c h < 0
  in
  Alcotest.(check bool) "inside" true (matches inside);
  Alcotest.(check bool) "outside" false (matches outside)

let test_alm_model_serial () =
  let m = Lazy.force alm_model in
  let m' = Alm.deserialize_model (Alm.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v (Alm.decompress m' (Alm.compress m v)))
    sample_values

let test_alm_compresses () =
  let m = Alm.train [ big_text ] in
  let c = Alm.compress m big_text in
  Alcotest.(check bool) "smaller than input" true
    (String.length c < String.length big_text)

(* Sizes of a trained, an empty, a hand-built and a text-trained model. *)
let test_alm_model_size () =
  List.iter
    (fun m ->
      Alcotest.(check int) "model_size = serialized length"
        (String.length (Alm.serialize_model m)) (Alm.model_size m))
    [ Lazy.force alm_model; Alm.of_tokens []; Alm.of_tokens [ "the"; "there"; "ir"; "se" ];
      Alm.train [ big_text ] ]

(* Model bodies no serializer wrote raise [Alm.Corrupt], and so does an
   image holding one, as [Repository.Corrupt]. *)
let test_alm_malformed_models () =
  let bodies =
    [
      ("three tokens declared, two present", "\000\003\002ab\002cd");
      ("last token cut short", "\000\002\002ab\005cd");
      ("no token count", "\000");
      ("a one-byte token", "\000\002\001a\002bc");
      ("an empty token", "\000\001\000");
      ("tokens out of order", "\000\002\002cd\002ab");
      ("a repeated token", "\000\002\002ab\002ab");
    ]
  in
  List.iter
    (fun (name, body) ->
      match Alm.deserialize_model body with
      | exception Alm.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted" name)
    bodies;
  let repo =
    Xquec_core.Loader.load ~name:"auction.xml" (Xmark.Xmlgen.generate ~seed:1 ~scale:0.05 ())
  in
  let image = Storage.Repository.serialize repo in
  let alm_body =
    List.find_map
      (fun (_, m) -> match m with Codec.M_alm a -> Some (Alm.serialize_model a) | _ -> None)
      (Storage.Repository.models repo)
    |> Option.get
  in
  (* The model record's algorithm name and body, each a varint length
     and its bytes. *)
  let record body =
    let buf = Buffer.create 64 in
    List.iter
      (fun s ->
        Rle.add_varint buf (String.length s);
        Buffer.add_string buf s)
      [ "alm"; body ];
    Buffer.contents buf
  in
  let find sub s =
    let n = String.length sub in
    let rec go i = if String.sub s i n = sub then i else go (i + 1) in
    go 0
  in
  let at = find (record alm_body) image in
  let whole = String.length (record alm_body) in
  List.iter
    (fun (name, body) ->
      let damaged =
        String.sub image 0 at ^ record body
        ^ String.sub image (at + whole) (String.length image - at - whole)
      in
      match Storage.Repository.deserialize damaged with
      | exception Storage.Repository.Corrupt _ -> ()
      | exception e -> Alcotest.failf "image, %s: raised %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "image, %s: loaded" name)
    bodies

(* The previous model builder, kept as the oracle for [Alm.of_tokens]:
   sorts the single bytes into the tokens, walks each token's minimal
   extensions with a [String.sub] per prefix test, and sorts the
   intervals, which carry explicit upper bounds ([None] = unbounded). *)
let oracle_next_prefix t =
  let rec go i =
    if i < 0 then None
    else if t.[i] = '\xff' then go (i - 1)
    else Some (String.sub t 0 i ^ String.make 1 (Char.chr (Char.code t.[i] + 1)))
  in
  go (String.length t - 1)

let oracle_is_prefix ~prefix s =
  String.length prefix <= String.length s && String.sub s 0 (String.length prefix) = prefix

let oracle_alm_intervals (tokens : string list) : (string * string option * string) array =
  let all =
    List.sort_uniq String.compare (List.init 256 (fun i -> String.make 1 (Char.chr i)) @ tokens)
  in
  let arr = Array.of_list all in
  let n = Array.length arr in
  let intervals = ref [] in
  for i = 0 to n - 1 do
    let t = arr.(i) in
    let exts = ref [] and last_kept = ref None and j = ref (i + 1) and continue = ref true in
    while !continue && !j < n do
      let u = arr.(!j) in
      if oracle_is_prefix ~prefix:t u then begin
        (match !last_kept with
        | Some k when oracle_is_prefix ~prefix:k u -> ()
        | Some _ | None ->
          exts := u :: !exts;
          last_kept := Some u);
        incr j
      end
      else continue := false
    done;
    let t_hi = oracle_next_prefix t in
    let lo = ref (Some t) in
    List.iter
      (fun u ->
        (match !lo with
        | Some lo_s when String.compare lo_s u < 0 -> intervals := (lo_s, Some u, t) :: !intervals
        | Some _ | None -> ());
        lo := oracle_next_prefix u)
      (List.rev !exts);
    match (!lo, t_hi) with
    | (Some lo_s, None) -> intervals := (lo_s, None, t) :: !intervals
    | (Some lo_s, Some h) when String.compare lo_s h < 0 -> intervals := (lo_s, t_hi, t) :: !intervals
    | _ -> ()
  done;
  let arr = Array.of_list !intervals in
  Array.sort (fun (a, _, _) (b, _, _) -> String.compare a b) arr;
  arr

(* The previous encoder, kept as the oracle for [Alm.compress]: a binary
   search of the intervals against a [String.sub] copy of the rest of
   the value, checked against the interval's upper bound. *)
let oracle_alm_compress intervals width value =
  let w = Bitio.Writer.create () in
  let rec go r =
    if r <> "" then begin
      let lo = ref 0 and hi = ref (Array.length intervals - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        let (l, _, _) = intervals.(mid) in
        if String.compare l r <= 0 then lo := mid else hi := mid - 1
      done;
      let (l, h, token) = intervals.(!lo) in
      if String.compare l r > 0 || (match h with Some h -> String.compare r h >= 0 | None -> false)
         || not (oracle_is_prefix ~prefix:token r)
      then failwith "oracle: no covering interval";
      Bitio.Writer.add_bits w (!lo + 1) width;
      go (String.sub r (String.length token) (String.length r - String.length token))
    end
  in
  go value;
  Bitio.Writer.contents w

(* Token lists over small alphabets, so tokens often prefix each other,
   with runs of '\xff' (which have no successor), every prefix of a few
   tokens (prefix chains), single bytes, and repeats. *)
let gen_alm_tokens =
  QCheck2.Gen.(
    let alpha = map Char.chr (oneof [ int_range 0 2; int_range 97 99; int_range 253 255; int_bound 255 ]) in
    let tok = string_size ~gen:alpha (int_range 1 7) in
    let ff_run = map2 (fun p k -> p ^ String.make k '\xff') (string_size ~gen:alpha (int_range 0 2)) (int_range 1 4) in
    let one = frequency [ (5, tok); (2, ff_run) ] in
    map2
      (fun toks chained ->
        let chains =
          List.concat_map (fun t -> List.init (String.length t) (fun i -> String.sub t 0 (i + 1))) chained
        in
        toks @ chains @ List.filteri (fun i _ -> i mod 3 = 0) toks)
      (list_size (int_range 0 40) one) (list_size (int_range 0 4) one))

let prop_alm_builder_oracle =
  QCheck2.Test.make ~name:"alm builder matches the oracle; intervals tile" ~count:300 gen_alm_tokens
    (fun tokens ->
      let m = Alm.of_tokens tokens in
      let oracle = Array.to_list (oracle_alm_intervals tokens) in
      let los = Array.to_list (Alm.code_bounds m) in
      let rec tiles = function
        | [ (_, None, _) ] -> true
        | (_, Some h, _) :: ((l, _, _) :: _ as rest) -> h = l && tiles rest
        | _ -> false
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> String.compare a b < 0 && increasing rest
        | _ -> true
      in
      los = List.map (fun (l, _, _) -> l) oracle
      && Array.to_list (Alm.code_tokens m) = List.map (fun (_, _, t) -> t) oracle
      && Alm.code_width m = Bitio.width_for (List.length oracle + 1)
      && tiles oracle && List.hd los = "\000" && increasing los)

(* The encoder searches only the bounds sharing the rest's first byte:
   on random models and values it picks the interval a linear search
   over every bound of the model picks. Values are mostly bytes that
   start tokens, and the extreme bytes. *)
let prop_alm_first_byte_index =
  let gen =
    QCheck2.Gen.(
      gen_alm_tokens >>= fun tokens ->
      let starts = List.map (fun t -> t.[0]) tokens @ [ '\000'; '\001'; '\xfe'; '\xff' ] in
      let byte = frequency [ (4, oneofl starts); (1, char) ] in
      pair (return tokens) (list_size (int_range 1 10) (string_size ~gen:byte (int_range 1 12))))
  in
  QCheck2.Test.make ~name:"alm first-byte search = full search" ~count:300 gen
    (fun (tokens, values) ->
      let m = Alm.of_tokens tokens in
      let los = Alm.code_bounds m and toks = Alm.code_tokens m in
      let full r =
        let i = ref 0 in
        Array.iteri (fun j l -> if String.compare l r <= 0 then i := j) los;
        !i
      in
      List.for_all
        (fun v ->
          let w = Bitio.Writer.create () in
          let rec go r =
            if r <> "" then begin
              let i = full r in
              Bitio.Writer.add_bits w (i + 1) (Alm.code_width m);
              let t = String.length toks.(i) in
              go (String.sub r t (String.length r - t))
            end
          in
          go v;
          Alm.compress m v = Bitio.Writer.contents w)
        values)

(* Values are random bytes, or runs of the model's own tokens with bytes
   between them. *)
let prop_alm_encoder_oracle =
  let gen =
    QCheck2.Gen.(
      gen_alm_tokens >>= fun tokens ->
      let from_tokens =
        if tokens = [] then gen_string
        else
          map (String.concat "") (list_size (int_range 0 8) (oneof [ oneofl tokens; gen_string ]))
      in
      pair (return tokens) (list_size (int_range 1 10) (oneof [ gen_string; from_tokens ])))
  in
  QCheck2.Test.make ~name:"alm encoder matches the oracle" ~count:300 gen (fun (tokens, values) ->
      let m = Alm.of_tokens tokens in
      let intervals = oracle_alm_intervals tokens in
      List.for_all
        (fun v ->
          let c = Alm.compress m v in
          c = oracle_alm_compress intervals (Alm.code_width m) v && Alm.decompress m c = v)
        values)

(* --- Arithmetic --- *)

let prop_arith_order =
  prop_cached "arith order preservation" (gen_pair gen_text) (fun (a, b) ->
      let m = Lazy.force arith_model in
      let ca = Arith.compress m a and cb = Arith.compress m b in
      compare (String.compare ca cb) 0 = compare (String.compare a b) 0)

let test_arith_model_serial () =
  let m = Lazy.force arith_model in
  let m' = Arith.deserialize_model (Arith.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v (Arith.decompress m' (Arith.compress m' v)))
    sample_values

(* --- Hu-Tucker --- *)

let prop_hu_order =
  prop_cached "hu-tucker order preservation" (gen_pair gen_text) (fun (a, b) ->
      let m = Lazy.force hu_model in
      let ca = Hu_tucker.compress m a and cb = Hu_tucker.compress m b in
      compare (String.compare ca cb) 0 = compare (String.compare a b) 0)

let test_hu_optimality_sanity () =
  (* Hu-Tucker is optimal among alphabetic codes; on a heavily skewed
     distribution it must beat the fixed-width 9-bit encoding. *)
  let values = List.init 200 (fun _ -> "aaaaaaaaab") in
  let m = Hu_tucker.train values in
  let c = Hu_tucker.compress m "aaaaaaaaab" in
  Alcotest.(check bool) "beats fixed width" true (String.length c < 10)

let test_hu_model_serial () =
  let m = Lazy.force hu_model in
  let m' = Hu_tucker.deserialize_model (Hu_tucker.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v
        (Hu_tucker.decompress m' (Hu_tucker.compress m v)))
    sample_values

(* --- BWT / MTF / RLE / Bzip / LZSS --- *)

let prop_bwt =
  QCheck2.Test.make ~name:"bwt roundtrip" ~count:300 gen_string (fun s ->
      Bwt.inverse (Bwt.transform s) = s)

let prop_mtf =
  QCheck2.Test.make ~name:"mtf roundtrip" ~count:300 gen_string (fun s ->
      Mtf.decode (Mtf.encode s) = s)

let prop_rle =
  QCheck2.Test.make ~name:"rle roundtrip" ~count:300
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 3)) (int_range 0 80))
    (fun s -> Rle.decode (Rle.encode s) = s)

let prop_bzip =
  QCheck2.Test.make ~name:"bzip roundtrip" ~count:100 gen_string (fun s ->
      Bzip.decompress (Bzip.compress s) = s)

(* The previous BWT (pairs compared with polymorphic [compare]) and the
   previous block writer (Huffman trained on every stream), kept as the
   oracles for [Bwt.transform] and [Bzip.compress]. *)
let oracle_bwt (s : string) : Bwt.t =
  let n = String.length s in
  if n = 0 then { Bwt.data = ""; primary = 0 }
  else begin
    let sa = Array.init n (fun i -> i) in
    let rank = Array.init n (fun i -> Char.code s.[i]) in
    let tmp = Array.make n 0 in
    let k = ref 1 in
    let continue = ref true in
    while !continue && !k < n do
      let key i = (rank.(i), rank.((i + !k) mod n)) in
      Array.sort (fun a b -> compare (key a) (key b)) sa;
      tmp.(sa.(0)) <- 0;
      for i = 1 to n - 1 do
        tmp.(sa.(i)) <- (tmp.(sa.(i - 1)) + if key sa.(i) = key sa.(i - 1) then 0 else 1)
      done;
      Array.blit tmp 0 rank 0 n;
      if rank.(sa.(n - 1)) = n - 1 then continue := false;
      k := !k * 2
    done;
    let primary = ref 0 in
    let data =
      String.init n (fun i ->
          let rot = sa.(i) in
          if rot = 0 then primary := i;
          s.[(rot + n - 1) mod n])
    in
    { Bwt.data; primary = !primary }
  end

let oracle_bzip (data : string) : string =
  let buf = Buffer.create (String.length data / 2) in
  Rle.add_varint buf (String.length data);
  let n = String.length data in
  let pos = ref 0 in
  while !pos < n do
    let block = String.sub data !pos (min Bzip.block_size (n - !pos)) in
    let bwt = oracle_bwt block in
    let rle = Rle.encode (Mtf.encode bwt.Bwt.data) in
    Rle.add_varint buf (String.length block);
    Rle.add_varint buf bwt.Bwt.primary;
    Rle.add_varint buf (String.length rle);
    let model = Huffman.train_raw rle in
    let coded = Huffman.compress_raw model rle in
    if Huffman.model_size model + String.length coded < String.length rle then begin
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Huffman.serialize_model model);
      Rle.add_varint buf (String.length coded);
      Buffer.add_string buf coded
    end
    else begin
      Buffer.add_char buf '\001';
      Buffer.add_string buf rle
    end;
    pos := !pos + String.length block
  done;
  Buffer.contents buf

(* Random strings, and periodic ones ("", "aaaa", "abab...") whose
   rotations tie under every prefix length. [Bwt.transform] sorts
   rotations by comparing them directly and falls back to prefix
   doubling when two rotations tie in full or its comparison budget
   runs out, so the rest cover long inputs and both fallbacks: random
   text of 4-12 KiB, near-periodic [a^k b] (past a few hundred bytes
   its rotations' shared prefixes exhaust the budget), a period
   repeated with one byte changed, and periodic inputs up to 4 KiB. *)
let gen_bwt_input =
  let repeat period reps = String.concat "" (List.init reps (fun _ -> period)) in
  QCheck2.Gen.(
    frequency
      [
        (6, gen_string);
        (6, string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; ' '; '\000'; '\255' ]) (int_range 200 1200));
        ( 6,
          map2 repeat
            (string_size ~gen:(char_range 'a' 'c') (int_range 1 4))
            (int_bound 200) );
        (1, string_size ~gen:(char_range 'a' 'd') (int_range 4090 12000));
        ( 1,
          map3
            (fun c d k -> String.make k c ^ String.make 1 d)
            (char_range 'a' 'b') (char_range 'a' 'c') (int_bound 4200) );
        ( 1,
          map3
            (fun period reps at ->
              let s = Bytes.of_string (repeat period reps) in
              Bytes.set s (at mod Bytes.length s) 'z';
              Bytes.to_string s)
            (string_size ~gen:(char_range 'a' 'c') (int_range 1 12))
            (int_range 20 300) nat );
        ( 1,
          map2
            (fun period len -> repeat period (len / String.length period))
            (string_size ~gen:(char_range 'a' 'c') (int_range 1 64))
            (int_range 64 4096) );
      ])

let prop_bwt_bzip_oracle =
  QCheck2.Test.make ~name:"bwt and bzip match the oracles byte for byte" ~count:300
    gen_bwt_input (fun s ->
      let t = Bwt.transform s and o = oracle_bwt s in
      let c = Bzip.compress s in
      t.Bwt.data = o.Bwt.data
      && t.Bwt.primary = o.Bwt.primary
      && Bwt.inverse t = s
      && c = oracle_bzip s
      && Bzip.decompress c = s)

let test_bzip_big () =
  Alcotest.(check string) "big text" big_text (Bzip.decompress (Bzip.compress big_text));
  let c = Bzip.compress big_text in
  Alcotest.(check bool) "compresses repetitive text" true
    (String.length c < String.length big_text / 2)

let test_bzip_multiblock () =
  let data = String.concat "" (List.init 80 (fun i -> big_text ^ string_of_int i)) in
  Alcotest.(check bool) "spans blocks" true (String.length data > 1 lsl 18);
  Alcotest.(check string) "multiblock roundtrip" data (Bzip.decompress (Bzip.compress data))

let prop_lzss =
  QCheck2.Test.make ~name:"lzss roundtrip" ~count:200 gen_string (fun s ->
      Lzss.decompress (Lzss.compress s) = s)

let test_lzss_big () =
  Alcotest.(check string) "big text" big_text (Lzss.decompress (Lzss.compress big_text));
  let c = Lzss.compress big_text in
  Alcotest.(check bool) "compresses repetitive text" true
    (String.length c < String.length big_text)

(* The reference LZSS decoder: the original bit-at-a-time one, kept as
   an oracle for the word-wise decoder in [Lzss]. *)
let oracle_lzss_decompress (data : string) : string =
  let n, pos = Rle.read_varint data 0 in
  let r = Bitio.Reader.of_string (String.sub data pos (String.length data - pos)) in
  let out = Buffer.create n in
  while Buffer.length out < n do
    if Bitio.Reader.read_bit r then
      Buffer.add_char out (Char.chr (Bitio.Reader.read_bits r 8))
    else begin
      let dist = Bitio.Reader.read_bits r 12 + 1 in
      let len = Bitio.Reader.read_bits r 4 + 3 in
      let start = Buffer.length out - dist in
      for j = 0 to len - 1 do
        Buffer.add_char out (Buffer.nth out (start + j))
      done
    end
  done;
  Buffer.contents out

(* Small alphabets make long matches; lengths up to 10,000 cross both
   the 4 KiB window and the 18-byte maximum match. *)
let gen_lz_text =
  QCheck2.Gen.(
    int_range 1 6 >>= fun k ->
    string_size ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound (k - 1)))
      (int_bound 10_000))

let prop_lzss_alphabets =
  QCheck2.Test.make ~name:"lzss roundtrip (small alphabets)" ~count:100 gen_lz_text
    (fun s -> Lzss.decompress (Lzss.compress s) = s)

type damage = Truncate of int | Flip of int * int

(* A damaged stream decodes to exactly the oracle's bytes or raises
   [Failure]; no other exception may escape. *)
let prop_lzss_damage =
  let gen =
    QCheck2.Gen.(
      triple gen_lz_text
        (list_size (int_range 1 4) (pair (int_bound 1_000_000) (int_range 1 255)))
        (option (int_bound 1_000_000)))
  in
  QCheck2.Test.make ~name:"lzss damaged streams match the oracle or fail" ~count:200
    gen (fun (s, flips, cut) ->
      let c = Bytes.of_string (Lzss.compress s) in
      let len = Bytes.length c in
      let damage =
        List.map (fun (at, x) -> Flip (at mod len, x)) flips
        @ (match cut with Some k -> [ Truncate (k mod len) ] | None -> [])
      in
      let c =
        List.fold_left
          (fun c d ->
            match d with
            | Flip (at, x) ->
              Bytes.set c at (Char.chr (Char.code (Bytes.get c at) lxor x));
              c
            | Truncate k -> Bytes.sub c 0 k)
          c damage
      in
      let c = Bytes.to_string c in
      match Lzss.decompress c with
      | exception Failure _ -> true
      | got -> ( try oracle_lzss_decompress c = got with _ -> false))

(* The original block decoder, over the oracle LZSS: a
   [(code, parent)] array through [Rle.read_varint] and copies. *)
let oracle_decode_block ~count payload =
  let rest = String.sub payload 1 (String.length payload - 1) in
  let body = if payload.[0] = '\001' then oracle_lzss_decompress rest else rest in
  let pos = ref 0 in
  Array.init count (fun _ ->
      let clen, p = Rle.read_varint body !pos in
      let code = String.sub body p clen in
      let parent, p = Rle.read_varint body (p + clen) in
      pos := p;
      (code, parent))

let test_decode_block_oracle () =
  let xml = Xmark.Xmlgen.generate ~seed:1 ~scale:0.5 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let blocks = ref 0 and lz = ref 0 in
  Array.iter
    (fun (c : Storage.Container.t) ->
      Array.iter
        (fun { Storage.Container.b_count = count; b_payload; _ } ->
          let codes, parents = Codec.decode_block ~count b_payload in
          let want = oracle_decode_block ~count b_payload in
          incr blocks;
          if b_payload.[0] = '\001' then incr lz;
          if Array.map fst want <> codes || Array.map snd want <> parents then
            Alcotest.failf "%s: block %d differs from the oracle" c.Storage.Container.path
              !blocks)
        c.Storage.Container.blocks)
    repo.Storage.Repository.containers;
  Alcotest.(check bool) "saw LZSS-stage blocks" true (!lz > 0 && !blocks > !lz)

let test_decode_block_failures () =
  let records = Array.init 40 (fun i -> (String.make (i mod 7) 'x', i)) in
  let payload = Codec.encode_block records in
  let fails what f =
    match f () with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: expected Failure" what
  in
  let codes, parents = Codec.decode_block ~count:40 payload in
  Alcotest.(check (array string)) "codes" (Array.map fst records) codes;
  Alcotest.(check (array int)) "parents" (Array.map snd records) parents;
  fails "empty payload" (fun () -> Codec.decode_block ~count:0 "");
  fails "unknown stage flag" (fun () -> Codec.decode_block ~count:1 "\007abc");
  fails "count past the body" (fun () -> Codec.decode_block ~count:41 payload);
  fails "truncated body" (fun () ->
      Codec.decode_block ~count:40 (String.sub payload 0 (String.length payload - 3)))

(* Encoder output is part of the on-disk format: these digests of whole
   saved images pin every encoder (Bitio writer, LZSS, block framing,
   the value codecs and the partitioner's choices) byte for byte. *)
let test_encoder_golden () =
  let md5 e = Digest.to_hex (Digest.string (Xquec_core.Engine.save e)) in
  let xml = In_channel.with_open_bin (Filename.concat "fixtures" "v3_small.xml") In_channel.input_all in
  Alcotest.(check string) "v3_small.xml, default options" "2f7c3d836dd5352af836a55a5b866479"
    (md5 (Xquec_core.Engine.load ~name:"v3_small.xml" xml));
  let xml = Xmark.Xmlgen.generate ~seed:1 ~scale:0.05 () in
  let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  Alcotest.(check string) "XMark 0.05 seed 1, Q1-Q20 workload"
    "01329b069b3f10711b046a9e546118a2"
    (md5 (Xquec_core.Engine.load ~name:"auction.xml" ~workload xml))

(* --- Numeric --- *)

let test_numeric_int () =
  let m = Ipack.train [ "0"; "5"; "123"; "99999" ] in
  List.iter
    (fun v -> Alcotest.(check string) "int roundtrip" v (Ipack.decompress m (Ipack.compress m v)))
    [ "0"; "5"; "123"; "99999"; "1000000" ];
  let lt a b =
    String.compare (Ipack.compress m a) (Ipack.compress m b) < 0
  in
  Alcotest.(check bool) "9 < 10 numerically" true (lt "9" "10");
  Alcotest.(check bool) "100 > 99" true (lt "99" "100")

let test_numeric_decimal () =
  let m = Ipack.train [ "0.00"; "58.43"; "1.99" ] in
  List.iter
    (fun v ->
      Alcotest.(check string) "decimal roundtrip" v (Ipack.decompress m (Ipack.compress m v)))
    [ "0.00"; "58.43"; "1.99"; "40.00"; "12345.67" ];
  let lt a b =
    String.compare (Ipack.compress m a) (Ipack.compress m b) < 0
  in
  Alcotest.(check bool) "9.50 < 10.20" true (lt "9.50" "10.20")

let test_numeric_rejects_text () =
  match Ipack.train [ "12"; "gold" ] with
  | exception Ipack.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let prop_numeric_order =
  QCheck2.Test.make ~name:"numeric order = numeric comparison" ~count:300
    QCheck2.Gen.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let m = Ipack.train [ "1" ] in
      let ca = Ipack.compress m (string_of_int a)
      and cb = Ipack.compress m (string_of_int b) in
      compare (String.compare ca cb) 0 = compare a b)

(* The digit-by-digit formatter prints what [string_of_int] and
   [Printf.sprintf "%d.%0*d"] print, for any non-negative value and
   every scale a [Decimal k] model can pack without overflow (10^k must
   fit a 63-bit integer, so k <= 18). *)
let prop_numeric_format =
  QCheck2.Test.make ~name:"numeric formatter = Printf formula" ~count:2000
    QCheck2.Gen.(
      pair
        (oneof [ small_nat; int_bound 1_000_000_000; int_range 0 max_int ])
        (int_range 0 18))
    (fun (v, k) ->
      let expect, m =
        if k = 0 then (string_of_int v, { Ipack.variant = Ipack.Int })
        else begin
          let p = int_of_float (10.0 ** float_of_int k) in
          (Printf.sprintf "%d.%0*d" (v / p) k (v mod p), { Ipack.variant = Ipack.Decimal k })
        end
      in
      let buf = Buffer.create 8 in
      Buffer.add_string buf "pre";
      Ipack.decompress_into m (Ipack.compress m expect) buf;
      Ipack.decompress m (Ipack.compress m expect) = expect
      && Buffer.contents buf = "pre" ^ expect)

(* --- Codec layer --- *)

let test_codec_dispatch () =
  List.iter
    (fun alg ->
      match Codec.train alg sample_values with
      | exception Codec.Unsupported _ ->
        Alcotest.(check string) "only numeric may reject" "numeric"
          (Codec.algorithm_name alg)
      | model ->
        Alcotest.(check string) "name roundtrip" (Codec.algorithm_name alg)
          (Codec.algorithm_name (Codec.algorithm_of_name (Codec.algorithm_name alg)));
        List.iter
          (fun v ->
            Alcotest.(check string)
              (Codec.algorithm_name alg ^ " codec roundtrip")
              v
              (Codec.decompress model (Codec.compress model v)))
          sample_values)
    Codec.all_algorithms

let test_codec_properties () =
  let p = Codec.properties Codec.Alm_alg in
  Alcotest.(check bool) "alm ineq" true p.Codec.ineq;
  Alcotest.(check bool) "alm wild" false p.Codec.wild;
  let p = Codec.properties Codec.Huffman_alg in
  Alcotest.(check bool) "huffman ineq" false p.Codec.ineq;
  Alcotest.(check bool) "huffman wild" true p.Codec.wild;
  Alcotest.(check bool) "bzip nothing" false (Codec.supports Codec.Bzip_alg `Eq);
  Alcotest.(check bool) "alm cheaper than huffman" true
    (Codec.decompression_cost Codec.Alm_alg < Codec.decompression_cost Codec.Huffman_alg)

(* ------------------------------------------------------------------ *)
(* Value decoders against the bit-at-a-time oracles                    *)
(* ------------------------------------------------------------------ *)

(* The previous Huffman decoder, kept as the oracle for the table-driven
   one: canonical codes rebuilt from the serialized lengths, then one
   [Bitio.Reader.read_bit] per bit, trying each code length in turn.
   [count] < 0 decodes up to the end-of-string symbol (value mode). *)
let oracle_huffman_decode (m : Huffman.model) ~count (compressed : string) : string =
  let lengths = Array.map Char.code (Array.of_seq (String.to_seq (Huffman.serialize_model m))) in
  let by_len = Hashtbl.create 257 in
  let code = ref 0 in
  for l = 1 to Array.fold_left max 0 lengths do
    Array.iteri
      (fun s l' -> if l' = l then begin Hashtbl.replace by_len (l, !code) s; incr code end)
      lengths;
    code := !code lsl 1
  done;
  let r = Bitio.Reader.of_string compressed in
  let read_symbol () =
    let rec go len code =
      if len > 64 then raise (Huffman.Corrupt "invalid code")
      else begin
        let code = (code lsl 1) lor (if Bitio.Reader.read_bit r then 1 else 0) in
        match Hashtbl.find_opt by_len (len + 1, code) with
        | Some s -> s
        | None -> go (len + 1) code
      end
    in
    go 0 0
  in
  let buf = Buffer.create 16 in
  let rec go k =
    if k <> count then begin
      let s = read_symbol () in
      if s = 256 then (if count >= 0 then raise (Huffman.Corrupt "eos in raw stream"))
      else begin
        Buffer.add_char buf (Char.chr s);
        go (k + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

(* The previous ALM decoder, kept as the oracle: one
   [Bitio.Reader.read_bits] per code. *)
let oracle_alm_decompress (m : Alm.model) (compressed : string) : string =
  let width = Alm.code_width m and tokens = Alm.code_tokens m in
  let r = Bitio.Reader.of_string compressed in
  let buf = Buffer.create 16 in
  let rec go () =
    if Bitio.Reader.bits_remaining r >= width then begin
      let code = Bitio.Reader.read_bits r width in
      if code <> 0 then begin
        if code > Array.length tokens then raise (Alm.Corrupt "ALM: bad code");
        Buffer.add_string buf tokens.(code - 1);
        go ()
      end
    end
  in
  go ();
  Buffer.contents buf

(* Skewed training sets: byte ['a' + i] has probability 2{^-(i+1)}, and
   every byte keeps the floor frequency, so the rare bytes get codes
   longer than the 12-bit decode table. The sets are drawn from a seed,
   which keeps generation cheap for strings this long. *)
let gen_skewed =
  QCheck2.Gen.(
    let training (n, seed) =
      let st = Random.State.make [| seed |] in
      let geometric () =
        let rec go i = if i < 20 && Random.State.bool st then go (i + 1) else i in
        Char.chr (97 + go 0)
      in
      List.init n (fun _ -> String.init (Random.State.int st 400) (fun _ -> geometric ()))
    in
    pair (map training (pair (int_range 1 60) int)) (list_size (int_range 1 20) gen_string))

let max_code_length m =
  String.fold_left (fun a c -> max a (Char.code c)) 0 (Huffman.serialize_model m)

let prop_huffman_oracle =
  QCheck2.Test.make ~name:"huffman table decoder matches the oracle (skewed)" ~count:100
    gen_skewed (fun (training, values) ->
      let m = Huffman.train training in
      List.for_all
        (fun v ->
          let c = Huffman.compress m v in
          let got = Huffman.decompress m c in
          got = v && got = oracle_huffman_decode m ~count:(-1) c)
        (training @ values))

(* The skewed sets do reach past the table: a fixed one whose rare bytes
   need codes of more than 12 bits round-trips through both decoders. *)
let test_huffman_long_codes () =
  let training = List.init 18 (fun k -> String.make (1 lsl k) (Char.chr (97 + k))) in
  let m = Huffman.train training in
  Alcotest.(check bool) "some code is longer than 12 bits" true (max_code_length m > 12);
  List.iter
    (fun v ->
      let c = Huffman.compress m v in
      Alcotest.(check string) "decompress" v (Huffman.decompress m c);
      Alcotest.(check string) "oracle" v (oracle_huffman_decode m ~count:(-1) c))
    [ ""; "a"; "\xff\xfe\x00"; "abcabc\x01zz"; String.init 256 Char.chr; String.make 50 'a' ]

let prop_huffman_raw_oracle =
  QCheck2.Test.make ~name:"huffman decompress_raw matches the oracle" ~count:200
    QCheck2.Gen.(pair (string_size ~gen:(map Char.chr (int_bound 255)) (int_range 0 2000)) nat)
    (fun (data, k) ->
      let m = Huffman.train_raw data in
      let c = Huffman.compress_raw m data in
      let n = String.length data in
      let count = if n = 0 then 0 else k mod (n + 1) in
      Huffman.decompress_raw m ~count:n c = data
      && Huffman.decompress_raw m ~count c = oracle_huffman_decode m ~count c
      && Huffman.decompress_raw m ~count c = String.sub data 0 count)

(* Bytes no encoder produced: both decoders agree, or both reject them
   (the oracle through [Out_of_bits] or [Corrupt], the table decoder
   through [Corrupt] only). *)
let prop_huffman_damaged_oracle =
  QCheck2.Test.make ~name:"huffman damaged values: same bytes as the oracle or Corrupt"
    ~count:300 QCheck2.Gen.(pair gen_skewed gen_string)
    (fun ((training, _), junk) ->
      let m = Huffman.train training in
      match Huffman.decompress m junk with
      | exception Huffman.Corrupt _ -> (
        match oracle_huffman_decode m ~count:(-1) junk with
        | exception (Huffman.Corrupt _ | Bitio.Reader.Out_of_bits) -> true
        | _ -> false)
      | got -> got = oracle_huffman_decode m ~count:(-1) junk)

(* The padding after the end-of-string code is shorter than a byte, so
   dropping any trailing byte cuts into that code. *)
let prop_huffman_truncated =
  QCheck2.Test.make ~name:"huffman: every strict byte-truncation raises Corrupt" ~count:300
    gen_skewed (fun (training, values) ->
      let m = Huffman.train training in
      List.for_all
        (fun v ->
          let c = Huffman.compress m v in
          List.for_all
            (fun k ->
              match Huffman.decompress m (String.sub c 0 k) with
              | exception Huffman.Corrupt _ -> true
              | _ -> false)
            (List.init (String.length c) Fun.id))
        values)

let test_huffman_rejects_lengths () =
  let corrupt what f =
    match f () with
    | exception Huffman.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s: expected Corrupt" what
  in
  let lengths assign =
    let a = Array.make Huffman.symbol_count 0 in
    List.iter (fun (s, l) -> a.(s) <- l) assign;
    a
  in
  let serialized a = String.init Huffman.symbol_count (fun i -> Char.chr a.(i)) in
  let over = lengths [ (0, 1); (1, 1); (2, 1) ] in
  corrupt "three 1-bit codes" (fun () -> Huffman.of_lengths over);
  corrupt "three 1-bit codes, deserialized" (fun () -> Huffman.deserialize_model (serialized over));
  let over_deep = lengths (List.init 257 (fun s -> (s, 8))) in
  corrupt "257 8-bit codes" (fun () -> Huffman.of_lengths over_deep);
  let too_long = lengths [ (0, 1); (1, Huffman.max_code_len + 1) ] in
  corrupt "a code past the accumulator" (fun () -> Huffman.of_lengths too_long);
  corrupt "a 255-bit code, deserialized" (fun () ->
      Huffman.deserialize_model (serialized (lengths [ (0, 1); (1, 255) ])));
  (* complete and incomplete codes at the limit are accepted *)
  let chain = lengths (List.init Huffman.max_code_len (fun i -> (i, i + 1))) in
  let m = Huffman.of_lengths chain in
  Alcotest.(check string) "56-bit code decodes" "\055"
    (Huffman.decompress_raw m ~count:1 (Huffman.compress_raw m "\055"));
  let single = Huffman.of_lengths (lengths [ (256, 1) ]) in
  Alcotest.(check string) "lone end-of-string code" "" (Huffman.decompress single "\000");
  corrupt "code absent from an incomplete model" (fun () -> Huffman.decompress single "\128")

(* One fresh model, so four domains race to build its decode table. *)
let test_huffman_concurrent_first_decode () =
  let values = List.init 300 (fun i -> Printf.sprintf "value %d %s" i (String.make (i mod 40) 'q')) in
  let m = Huffman.train values in
  let codes = List.map (Huffman.compress m) values in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.for_all2 (fun c v -> Huffman.decompress m c = v) codes values))
  in
  Alcotest.(check (list bool)) "every domain decodes every value" [ true; true; true; true ]
    (List.map Domain.join domains)

(* An ALM model of code width [w]: two-byte tokens [c1 c2] in order, so
   each full first-byte row adds 257 codes and the last row two more
   than its tokens; [extra] tokens may widen it by one. Up to width 17. *)
let alm_model_of_width ?(extra = []) w =
  let n = (1 lsl (w - 1)) - 256 + 4 in
  Alm.of_tokens (List.init n (fun k -> String.init 2 (fun j -> Char.chr (if j = 0 then k / 256 else k mod 256))) @ extra)

(* Width 18, the widest a serialized model's uint16 token count allows:
   the two-byte tokens [c 2j] leave a gap after each, and 32640 of them
   get a three-byte child [c 2j 0], which adds its own code and one
   after it: 2{^17} intervals, so 2{^17} + 1 codes with padding. *)
let alm_model_of_width_18 () =
  let row k = Printf.sprintf "%c%c" (Char.chr (k / 128)) (Char.chr (2 * (k mod 128))) in
  Alm.of_tokens (List.init 32768 row @ List.init 32640 (fun k -> row k ^ "\000"))

(* Every width a model can have: 9 for the single bytes alone, up to 18.
   The accumulator takes 48 bits at a time up to 16 and bytes above. The
   widest models go through their serialized form, as an image holds
   them. A run of '\255' encodes as the top code, whose high bit a
   refill that overflowed the accumulator would lose. *)
let test_alm_widths () =
  List.iter
    (fun w ->
      let m = if w = 18 then alm_model_of_width_18 () else alm_model_of_width w in
      let m = if w >= 17 then Alm.deserialize_model (Alm.serialize_model m) else m in
      Alcotest.(check int) (Printf.sprintf "width %d" w) w (Alm.code_width m);
      List.iter
        (fun v ->
          let c = Alm.compress m v in
          Alcotest.(check string) "decompress" v (Alm.decompress m c);
          Alcotest.(check string) "oracle" v (oracle_alm_decompress m c))
        [ ""; "\000"; "\255\255\255"; "abc"; String.init 256 Char.chr;
          String.init 10_000 (fun i -> Char.chr (i * 7 mod 256)); String.make 64 '\255' ])
    [ 9; 10; 11; 12; 13; 14; 15; 16; 17; 18 ]

(* Each domain decodes into its own buffer: four domains decoding at
   once, values long enough to outgrow it among them, all agree. *)
let test_alm_concurrent_decode () =
  let values = List.init 300 (fun i -> Printf.sprintf "value %d %s" i (String.make (i * 23) 'q')) in
  let m = Alm.train values in
  let codes = List.map (Alm.compress m) values in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.for_all (fun _ -> List.for_all2 (fun c v -> Alm.decompress m c = v) codes values)
              (List.init 20 Fun.id)))
  in
  Alcotest.(check (list bool)) "every domain decodes every value" [ true; true; true; true ]
    (List.map Domain.join domains)

let prop_alm_oracle =
  let gen =
    QCheck2.Gen.(
      quad (int_range 9 16)
        (list_size (int_range 0 30) (string_size ~gen:(map Char.chr (int_bound 255)) (int_range 2 6)))
        (list_size (int_range 1 20) gen_string) gen_string)
  in
  QCheck2.Test.make ~name:"alm decoder matches the oracle, widths 9-16" ~count:40 gen
    (fun (w, extra, values, junk) ->
      let m = alm_model_of_width ~extra w in
      List.for_all
        (fun v ->
          let c = Alm.compress m v in
          Alm.decompress m c = v && oracle_alm_decompress m c = v)
        values
      &&
      match Alm.decompress m junk with
      | exception Alm.Corrupt _ -> (
        match oracle_alm_decompress m junk with exception Alm.Corrupt _ -> true | _ -> false)
      | got -> got = oracle_alm_decompress m junk)

(* Every value of an XMark image decodes as the oracles decode it. *)
let test_image_values_oracle () =
  let xml = Xmark.Xmlgen.generate ~seed:1 ~scale:0.25 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let checked = ref 0 in
  Array.iter
    (fun (c : Storage.Container.t) ->
      let oracle =
        match c.Storage.Container.model with
        | Codec.M_huffman h -> Some (oracle_huffman_decode h ~count:(-1))
        | Codec.M_alm a -> Some (oracle_alm_decompress a)
        | _ -> None
      in
      Option.iter
        (fun oracle ->
          for b = 0 to Storage.Container.block_count c - 1 do
            Array.iter
              (fun code ->
                incr checked;
                if Codec.decompress c.Storage.Container.model code <> oracle code then
                  Alcotest.failf "%s: a value differs from the oracle" c.Storage.Container.path)
              (fst (Storage.Container.read_block c b))
          done)
        oracle)
    repo.Storage.Repository.containers;
  Alcotest.(check bool) "checked values" true (!checked > 1000)

(* ------------------------------------------------------------------ *)
(* Training and pricing against the previous implementations           *)
(* ------------------------------------------------------------------ *)

(* The previous Hu-Tucker combination, kept as the oracle: every merge
   rescans every compatible pair (no alive leaf strictly between) and
   keeps the first of least sum. *)
let oracle_hu_combine (weights : int array) : int array =
  let n = Array.length weights in
  let module T = struct
    type tree = Leaf of int | Node of tree * tree
  end in
  let open T in
  let slots = Array.init n (fun i -> Some (weights.(i), true, Leaf i)) in
  let alive = ref n in
  while !alive > 1 do
    let best = ref None in
    for i = 0 to n - 1 do
      match slots.(i) with
      | None -> ()
      | Some (wi, _, _) ->
        let j = ref (i + 1) and blocked = ref false in
        while (not !blocked) && !j < n do
          (match slots.(!j) with
          | None -> ()
          | Some (wj, j_leaf, _) ->
            let sum = wi + wj in
            (match !best with
            | Some (bsum, _, _) when bsum <= sum -> ()
            | _ -> best := Some (sum, i, !j));
            if j_leaf then blocked := true);
          incr j
        done
    done;
    match !best with
    | None -> assert false
    | Some (sum, bi, bj) ->
      let tree k = match slots.(k) with Some (_, _, t) -> t | None -> assert false in
      slots.(bi) <- Some (sum, false, Node (tree bi, tree bj));
      slots.(bj) <- None;
      decr alive
  done;
  let root = Array.to_list slots |> List.find_map (Option.map (fun (_, _, t) -> t)) |> Option.get in
  let depths = Array.make n 0 in
  let rec walk d = function
    | Leaf i -> depths.(i) <- max 1 d
    | Node (a, b) ->
      walk (d + 1) a;
      walk (d + 1) b
  in
  walk 0 root;
  depths

(* Weights with heavy ties: drawn from a small range most of the time. *)
let gen_weights =
  QCheck2.Gen.(
    let* hi = oneofl [ 2; 4; 16; 1000 ] in
    array_size (int_range 1 300) (int_range 1 hi))

let prop_hu_combine_oracle =
  QCheck2.Test.make ~name:"hu-tucker combine matches the naive oracle" ~count:300 gen_weights
    (fun w -> Hu_tucker.combine w = oracle_hu_combine w)

(* The previous move-to-front coder, kept as the oracle: an int array
   shifted one cell at a time. *)
let oracle_mtf ~decode (s : string) : string =
  let table = Array.init 256 (fun i -> i) in
  String.map
    (fun c ->
      let pos =
        if decode then Char.code c
        else
          let rec find i = if table.(i) = Char.code c then i else find (i + 1) in
          find 0
      in
      let b = table.(pos) in
      for i = pos downto 1 do
        table.(i) <- table.(i - 1)
      done;
      table.(0) <- b;
      Char.chr (if decode then b else pos))
    s

let gen_bytes =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 600);
        string_size ~gen:(oneofl [ 'a'; 'b'; '\000'; '\255' ]) (int_range 0 200);
      ])

let prop_mtf_oracle =
  QCheck2.Test.make ~name:"mtf encode and decode match the oracle" ~count:300 gen_bytes (fun s ->
      Mtf.encode s = oracle_mtf ~decode:false s && Mtf.decode s = oracle_mtf ~decode:true s)

(* The previous Huffman code lengths, kept as the oracle: lists, two
   [Queue]s and a polymorphic-variant tree. *)
let oracle_code_lengths (freqs : int array) : int array =
  let present =
    Array.to_list (Array.mapi (fun s f -> (s, f)) freqs) |> List.filter (fun (_, f) -> f > 0)
  in
  let lens = Array.make Huffman.symbol_count 0 in
  (match present with
  | [] -> invalid_arg "empty"
  | [ (s, _) ] -> lens.(s) <- 1
  | _ ->
    let sorted = List.sort (fun (_, f) (_, f') -> compare f f') present in
    let leaves = Queue.create () and merged = Queue.create () in
    List.iter (fun (s, f) -> Queue.add (f, `Leaf s) leaves) sorted;
    let take_min () =
      match (Queue.is_empty leaves, Queue.is_empty merged) with
      | false, true -> Queue.pop leaves
      | true, false -> Queue.pop merged
      | _ ->
        if fst (Queue.peek leaves) <= fst (Queue.peek merged) then Queue.pop leaves
        else Queue.pop merged
    in
    while Queue.length leaves + Queue.length merged > 1 do
      let f1, n1 = take_min () in
      let f2, n2 = take_min () in
      Queue.add (f1 + f2, `Node (n1, n2)) merged
    done;
    let rec assign depth = function
      | `Leaf s -> lens.(s) <- max 1 depth
      | `Node (a, b) ->
        assign (depth + 1) a;
        assign (depth + 1) b
    in
    assign 0 (snd (take_min ())));
  lens

(* The previous canonical assignment: codes handed out length by length,
   by symbol within a length. *)
let oracle_canonical_codes (lengths : int array) : int array =
  let codes = Array.make Huffman.symbol_count 0 in
  let code = ref 0 in
  for l = 1 to Array.fold_left max 0 lengths do
    Array.iteri
      (fun s l' ->
        if l' = l then begin
          codes.(s) <- !code;
          incr code
        end)
      lengths;
    code := !code lsl 1
  done;
  codes

(* Frequency tables with many ties and absent symbols. *)
let gen_freqs =
  QCheck2.Gen.(
    let* hi = oneofl [ 1; 3; 8; 100000 ] in
    let* present = int_range 1 Huffman.symbol_count in
    let* f = array_size (return Huffman.symbol_count) (int_range 0 hi) in
    let* keep = array_size (return Huffman.symbol_count) (int_bound Huffman.symbol_count) in
    let* first = int_bound (Huffman.symbol_count - 1) in
    return
      (Array.mapi
         (fun s x -> if s = first then max 1 x else if keep.(s) < present then x else 0)
         f))

let prop_huffman_lengths_oracle =
  QCheck2.Test.make ~name:"huffman code lengths and canonical codes match the oracle" ~count:300
    gen_freqs (fun freqs ->
      let lens = Huffman.code_lengths freqs in
      let m = Huffman.of_lengths lens and codes = oracle_canonical_codes lens in
      lens = oracle_code_lengths freqs
      && List.for_all
           (fun s ->
             lens.(s) = 0
             ||
             let w = Bitio.Writer.create () in
             Bitio.Writer.add_bits w codes.(s) lens.(s);
             Huffman.compress_raw m (String.make 1 (Char.chr s)) = Bitio.Writer.contents w)
           (List.init 256 Fun.id))

(* The previous direct rotation sort, kept as the oracle: byte-by-byte
   comparisons under the same budget in [Array.stable_sort], falling
   back to prefix doubling. *)
let oracle_bwt_direct (s : string) : Bwt.t =
  let n = String.length s in
  let ss = s ^ s in
  let log2 = ref 1 in
  while 1 lsl !log2 < n do
    incr log2
  done;
  let budget = ref (8 * n * !log2) in
  let exception Give_up in
  let cmp a b =
    let k = ref 0 in
    while !k < n && ss.[a + !k] = ss.[b + !k] do
      incr k
    done;
    budget := !budget - !k - 1;
    if !k = n || !budget < 0 then raise Give_up;
    Char.compare ss.[a + !k] ss.[b + !k]
  in
  let sa = Array.init n Fun.id in
  match Array.stable_sort cmp sa with
  | exception Give_up -> oracle_bwt s
  | () when n = 0 -> { Bwt.data = ""; primary = 0 }
  | () ->
    let primary = ref 0 in
    let data =
      String.init n (fun i ->
          if sa.(i) = 0 then primary := i;
          s.[(sa.(i) + n - 1) mod n])
    in
    { Bwt.data; primary = !primary }

let prop_bwt_direct_oracle =
  QCheck2.Test.make ~name:"bwt matches the previous direct sort" ~count:300 gen_bwt_input
    (fun s ->
      let t = Bwt.transform s and o = oracle_bwt_direct s in
      t.Bwt.data = o.Bwt.data && t.Bwt.primary = o.Bwt.primary)

(* The previous LZSS encoder, kept as the oracle: a [-1]-filled head
   table, an option per match and one bit-writer call per field. *)
let oracle_lzss (data : string) : string =
  let n = String.length data in
  let w = Bitio.Writer.create ~size:n () in
  let head = Array.make (1 lsl 14) (-1) and prev = Array.make (max n 1) (-1) in
  let hash i =
    (Char.code data.[i] lsl 10) lxor (Char.code data.[i + 1] lsl 5) lxor Char.code data.[i + 2]
    land ((1 lsl 14) - 1)
  in
  let insert i =
    if i + 3 <= n then begin
      let h = hash i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let find_match i =
    if i + 3 > n then None
    else begin
      let limit = max 0 (i - 4096) in
      let best_len = ref 0 and best_pos = ref (-1) and cand = ref head.(hash i) and tries = ref 32 in
      while !cand >= limit && !tries > 0 do
        let c = !cand in
        if c < i then begin
          let len = ref 0 in
          while !len < min 18 (n - i) && data.[c + !len] = data.[i + !len] do
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
      if !best_len >= 3 then Some (!best_pos, !best_len) else None
    end
  in
  let header = Buffer.create 8 in
  Rle.add_varint header n;
  let i = ref 0 in
  while !i < n do
    match find_match !i with
    | Some (pos, len) ->
      Bitio.Writer.add_bit w false;
      Bitio.Writer.add_bits w (!i - pos - 1) 12;
      Bitio.Writer.add_bits w (len - 3) 4;
      for j = !i to !i + len - 1 do
        insert j
      done;
      i := !i + len
    | None ->
      Bitio.Writer.add_bit w true;
      Bitio.Writer.add_bits w (Char.code data.[!i]) 8;
      insert !i;
      incr i
  done;
  Buffer.contents header ^ Bitio.Writer.contents w

let prop_lzss_encoder_oracle =
  QCheck2.Test.make ~name:"lzss encoder matches the oracle byte for byte" ~count:200
    QCheck2.Gen.(oneof [ gen_bwt_input; gen_lz_text; map (fun k -> String.sub big_text 0 k) (int_bound 4000) ])
    (fun s -> Lzss.compress s = oracle_lzss s)

(* The Q1-Q20-tuned images of eight XMark 0.25 documents, recorded
   before codec training and pricing were made cheaper: training,
   pricing and encoding must not change a byte. *)
let test_tuned_seed_digests () =
  let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all in
  List.iter
    (fun (seed, digest) ->
      let xml = Xmark.Xmlgen.generate ~seed ~scale:0.25 () in
      let e = Xquec_core.Engine.load ~name:"auction.xml" ~workload xml in
      Alcotest.(check string)
        (Printf.sprintf "XMark 0.25 seed %d, Q1-Q20 workload" seed)
        digest
        (Digest.to_hex (Digest.string (Xquec_core.Engine.save e))))
    [
      (42, "515a56d594dc8eefee3e20aeef7dc6e0");
      (43, "d6e1d779bc4dff5aa876c61691b711a0");
      (44, "99dfd64f0e69ca6624355cca8ffdf015");
      (45, "e09333e27c2a5226894b7848e0d085f5");
      (46, "5b7e3090d7485c0b5b7aaca49e700233");
      (47, "12a346245c23d4d11db27c47f8bbb2ce");
      (48, "bb28b62c07cf48c24be8359196dd9f5f");
      (49, "3d6ac72fc5413de97835cffcbbddf23e");
    ]

let suites =
  [
    ( "bitio",
      [
        Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip;
        Alcotest.test_case "width_for" `Quick test_bitio_width;
        QCheck_alcotest.to_alcotest prop_bitio;
      ] );
    ( "huffman",
      [
        roundtrip_tests "huffman" Huffman.train Huffman.compress Huffman.decompress;
        Alcotest.test_case "equality in compressed domain" `Quick test_huffman_equality;
        Alcotest.test_case "prefix wildcard" `Quick test_huffman_prefix;
        Alcotest.test_case "model serialization" `Quick test_huffman_model_serial;
        Alcotest.test_case "actually compresses" `Quick test_huffman_compresses;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "huffman" gen_string Huffman.train Huffman.compress
             Huffman.decompress);
        QCheck_alcotest.to_alcotest prop_huffman_prefix;
      ] );
    ( "alm",
      [
        roundtrip_tests "alm" Alm.train Alm.compress Alm.decompress;
        Alcotest.test_case "paper fig. 2 scenario" `Quick test_alm_fig2;
        Alcotest.test_case "prefix range extension" `Quick test_alm_prefix_range;
        Alcotest.test_case "model serialization" `Quick test_alm_model_serial;
        Alcotest.test_case "actually compresses" `Quick test_alm_compresses;
        Alcotest.test_case "model size from token lengths" `Quick test_alm_model_size;
        Alcotest.test_case "malformed models are Corrupt" `Quick test_alm_malformed_models;
        QCheck_alcotest.to_alcotest prop_alm_builder_oracle;
        QCheck_alcotest.to_alcotest prop_alm_encoder_oracle;
        QCheck_alcotest.to_alcotest prop_alm_first_byte_index;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "alm" gen_string Alm.train Alm.compress Alm.decompress);
        QCheck_alcotest.to_alcotest prop_alm_order;
        QCheck_alcotest.to_alcotest prop_alm_order_binary;
        QCheck_alcotest.to_alcotest prop_alm_miner_oracle;
        Alcotest.test_case "miner matches the oracle at the cap" `Quick test_alm_miner_cap;
      ] );
    ( "arith",
      [
        roundtrip_tests "arith" Arith.train Arith.compress Arith.decompress;
        Alcotest.test_case "model serialization" `Quick test_arith_model_serial;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "arith" gen_string Arith.train Arith.compress Arith.decompress);
        QCheck_alcotest.to_alcotest prop_arith_order;
      ] );
    ( "hu-tucker",
      [
        roundtrip_tests "hu-tucker" Hu_tucker.train Hu_tucker.compress
          Hu_tucker.decompress;
        Alcotest.test_case "optimality sanity" `Quick test_hu_optimality_sanity;
        Alcotest.test_case "model serialization" `Quick test_hu_model_serial;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "hu-tucker" gen_string Hu_tucker.train Hu_tucker.compress
             Hu_tucker.decompress);
        QCheck_alcotest.to_alcotest prop_hu_order;
      ] );
    ( "bzip-pipeline",
      [
        Alcotest.test_case "bzip big text" `Quick test_bzip_big;
        Alcotest.test_case "bzip multi-block" `Quick test_bzip_multiblock;
        Alcotest.test_case "lzss big text" `Quick test_lzss_big;
        QCheck_alcotest.to_alcotest prop_bwt;
        QCheck_alcotest.to_alcotest prop_mtf;
        QCheck_alcotest.to_alcotest prop_rle;
        QCheck_alcotest.to_alcotest prop_bzip;
        QCheck_alcotest.to_alcotest prop_bwt_bzip_oracle;
        QCheck_alcotest.to_alcotest prop_lzss;
        QCheck_alcotest.to_alcotest prop_lzss_alphabets;
        QCheck_alcotest.to_alcotest prop_lzss_damage;
      ] );
    ( "numeric",
      [
        Alcotest.test_case "integers" `Quick test_numeric_int;
        Alcotest.test_case "decimals" `Quick test_numeric_decimal;
        Alcotest.test_case "rejects text" `Quick test_numeric_rejects_text;
        QCheck_alcotest.to_alcotest prop_numeric_order;
        QCheck_alcotest.to_alcotest prop_numeric_format;
      ] );
    ( "block-decode",
      [
        Alcotest.test_case "decode_block agrees with the oracle" `Quick
          test_decode_block_oracle;
        Alcotest.test_case "decode_block fails typed" `Quick test_decode_block_failures;
        Alcotest.test_case "encoder golden image md5" `Quick test_encoder_golden;
      ] );
    ( "value-decode",
      [
        QCheck_alcotest.to_alcotest prop_huffman_oracle;
        Alcotest.test_case "huffman codes past the table" `Quick test_huffman_long_codes;
        QCheck_alcotest.to_alcotest prop_huffman_raw_oracle;
        QCheck_alcotest.to_alcotest prop_huffman_damaged_oracle;
        QCheck_alcotest.to_alcotest prop_huffman_truncated;
        Alcotest.test_case "huffman rejects impossible lengths" `Quick
          test_huffman_rejects_lengths;
        Alcotest.test_case "huffman first decode on 4 domains" `Quick
          test_huffman_concurrent_first_decode;
        Alcotest.test_case "alm widths 9-18" `Quick test_alm_widths;
        Alcotest.test_case "alm decode on 4 domains" `Quick test_alm_concurrent_decode;
        QCheck_alcotest.to_alcotest prop_alm_oracle;
        Alcotest.test_case "xmark image values match the oracles" `Quick
          test_image_values_oracle;
      ] );
    ( "codec",
      [
        Alcotest.test_case "dispatch all algorithms" `Quick test_codec_dispatch;
        Alcotest.test_case "properties table" `Quick test_codec_properties;
      ] );
    ( "training-oracles",
      [
        QCheck_alcotest.to_alcotest prop_hu_combine_oracle;
        QCheck_alcotest.to_alcotest prop_mtf_oracle;
        QCheck_alcotest.to_alcotest prop_huffman_lengths_oracle;
        QCheck_alcotest.to_alcotest prop_bwt_direct_oracle;
        QCheck_alcotest.to_alcotest prop_lzss_encoder_oracle;
        Alcotest.test_case "tuned images of seeds 42-49" `Quick test_tuned_seed_digests;
      ] );
  ]
