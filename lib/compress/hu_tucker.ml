(* Hu-Tucker optimal alphabetic (order-preserving) binary codes
   (Hu & Tucker 1971) — the order-preserving baseline ALM is compared
   against in the paper (§2.1, citing [19]).

   Alphabet: symbol 0 is the end-of-string marker (smallest, so that a
   proper prefix of another string compares below it), symbols 1..256 are
   the bytes in order. The combination phase is the classic O(n²·n) naive
   procedure — ample at alphabet size 257, and only run once per model. *)

let symbol_count = 257
let eos = 0
let sym_of_char c = Char.code c + 1

type model = {
  lengths : int array;
  codes : int array;
  max_len : int;
  (* decoding trie in a flat array: node i has children at trie.(2i),
     trie.(2i+1); negative entries are ~symbol leaves, 0 = absent. *)
  trie : int array;
}

exception Corrupt of string

(* Phase 1: combination. Returns the depth of each original leaf. *)
let combine (weights : int array) : int array =
  let n = Array.length weights in
  (* Working sequence: Some (weight, is_leaf, tree) at original positions. *)
  let module T = struct
    type tree = Leaf of int | Node of tree * tree
  end in
  let open T in
  let slots = Array.init n (fun i -> Some (weights.(i), true, Leaf i)) in
  let alive = ref n in
  while !alive > 1 do
    (* Find the minimal compatible pair: positions i < j, both alive, with
       no alive *leaf* strictly between them. *)
    let best = ref None in
    let i = ref 0 in
    while !i < n do
      (match slots.(!i) with
      | None -> ()
      | Some (wi, _, _) ->
        (* scan forward until blocked by a leaf *)
        let j = ref (!i + 1) in
        let blocked = ref false in
        while (not !blocked) && !j < n do
          (match slots.(!j) with
          | None -> ()
          | Some (wj, j_leaf, _) ->
            let sum = wi + wj in
            (match !best with
            | Some (bsum, _, _) when bsum <= sum -> ()
            | Some _ | None -> best := Some (sum, !i, !j));
            if j_leaf then blocked := true);
          incr j
        done);
      incr i
    done;
    match !best with
    | None -> assert false
    | Some (sum, bi, bj) ->
      let ti = match slots.(bi) with Some (_, _, t) -> t | None -> assert false in
      let tj = match slots.(bj) with Some (_, _, t) -> t | None -> assert false in
      slots.(bi) <- Some (sum, false, Node (ti, tj));
      slots.(bj) <- None;
      decr alive
  done;
  let root =
    let rec find i = match slots.(i) with Some (_, _, t) -> t | None -> find (i + 1) in
    find 0
  in
  let depths = Array.make n 0 in
  let rec walk d = function
    | Leaf i -> depths.(i) <- max 1 d
    | Node (a, b) ->
      walk (d + 1) a;
      walk (d + 1) b
  in
  (match root with Leaf i -> depths.(i) <- 1 | Node _ -> walk 0 root);
  depths

(* Phases 2-3: rebuild an alphabetic prefix code from the depth sequence. *)
let alphabetic_codes (lengths : int array) : int array =
  let n = Array.length lengths in
  let codes = Array.make n 0 in
  let prev_code = ref (-1) in
  let prev_len = ref 0 in
  for i = 0 to n - 1 do
    let l = lengths.(i) in
    let c =
      if !prev_code < 0 then 0
      else if l >= !prev_len then (!prev_code + 1) lsl (l - !prev_len)
      else begin
        let shift = !prev_len - l in
        (!prev_code + (1 lsl shift)) lsr shift
      end
    in
    codes.(i) <- c;
    prev_code := c;
    prev_len := l
  done;
  codes

let build_trie lengths codes =
  let max_nodes = 2 * Array.length lengths * (Array.fold_left max 1 lengths) + 16 in
  let trie = Array.make (2 * max_nodes) 0 in
  let next = ref 1 in
  Array.iteri
    (fun sym l ->
      if l > 0 then begin
        let node = ref 0 in
        for b = l - 1 downto 0 do
          let bit = (codes.(sym) lsr b) land 1 in
          let slot = (2 * !node) + bit in
          if b = 0 then trie.(slot) <- lnot sym
          else begin
            if trie.(slot) = 0 then begin
              trie.(slot) <- !next;
              incr next
            end;
            if trie.(slot) < 0 then raise (Corrupt "code is not prefix-free");
            node := trie.(slot)
          end
        done
      end)
    lengths;
  trie

let of_lengths (lengths : int array) : model =
  let codes = alphabetic_codes lengths in
  let max_len = Array.fold_left max 0 lengths in
  { lengths; codes; max_len; trie = build_trie lengths codes }

(** Train on container values (floor frequency 1 keeps the code total). *)
let train (values : string list) : model =
  let freqs = Array.make symbol_count 1 in
  freqs.(eos) <- max 1 (List.length values);
  List.iter
    (fun v -> String.iter (fun c -> let s = sym_of_char c in freqs.(s) <- freqs.(s) + 1) v)
    values;
  of_lengths (combine freqs)

let compress (m : model) (value : string) : string =
  let w = Bitio.Writer.create ~size:(String.length value) () in
  String.iter (fun c ->
      let s = sym_of_char c in
      Bitio.Writer.add_bits w m.codes.(s) m.lengths.(s))
    value;
  Bitio.Writer.add_bits w m.codes.(eos) m.lengths.(eos);
  Bitio.Writer.contents w

let decompress (m : model) (compressed : string) : string =
  let r = Bitio.Reader.of_string compressed in
  let buf = Buffer.create 16 in
  let rec symbol node =
    let bit = if Bitio.Reader.read_bit r then 1 else 0 in
    let slot = m.trie.((2 * node) + bit) in
    if slot < 0 then lnot slot
    else if slot = 0 then raise (Corrupt "invalid code")
    else symbol slot
  in
  let rec go () =
    let s = symbol 0 in
    if s <> eos then begin
      Buffer.add_char buf (Char.chr (s - 1));
      go ()
    end
  in
  go ();
  Buffer.contents buf

let serialize_model (m : model) : string =
  String.init symbol_count (fun i -> Char.chr m.lengths.(i))

let deserialize_model (s : string) : model =
  if String.length s <> symbol_count then raise (Corrupt "bad model size");
  of_lengths (Array.init symbol_count (fun i -> Char.code s.[i]))

let model_size m = String.length (serialize_model m)
