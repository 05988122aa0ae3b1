(* Hu-Tucker optimal alphabetic (order-preserving) binary codes
   (Hu & Tucker 1971) — the order-preserving baseline ALM is compared
   against in the paper (§2.1, citing [19]).

   Alphabet: symbol 0 is the end-of-string marker (smallest, so that a
   proper prefix of another string compares below it), symbols 1..256 are
   the bytes in order. The combination phase makes one O(n) pass per
   merge, O(n²) in all, over flat arrays: nothing is allocated per
   candidate pair. *)

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

(* Phase 1: combination. Returns the depth of each original leaf.

   The working sequence is kept compact, in position order: slot [k]
   holds a weight, whether it is still an original leaf, and its tree
   node (leaves are [0 .. n-1], merged nodes [n ..], with their children
   in [left] and [right]). Each merge joins the minimal compatible pair:
   two slots with no leaf strictly between them, leftmost on ties. One
   right-to-left pass finds it: a slot's best partner is the leftmost
   minimum weight among the slots after it, up to and including the
   next leaf, and the pair is the first slot with the least sum. *)
let combine (weights : int array) : int array =
  let n = Array.length weights in
  let w = Array.copy weights and leaf = Array.make n true and tree = Array.init n Fun.id in
  let left = Array.make (max 0 (n - 1)) 0 and right = Array.make (max 0 (n - 1)) 0 in
  let live = ref n in
  while !live > 1 do
    let m = !live in
    (* [pw]/[pk]: the best partner of the slot left of [k] *)
    let pw = ref w.(m - 1) and pk = ref (m - 1) in
    let best = ref max_int and bi = ref 0 and bj = ref 0 in
    for k = m - 2 downto 0 do
      let sum = w.(k) + !pw in
      if sum <= !best then begin
        best := sum;
        bi := k;
        bj := !pk
      end;
      if leaf.(k) || w.(k) <= !pw then begin
        pw := w.(k);
        pk := k
      end
    done;
    let i = !bi and j = !bj in
    let node = n + (n - m) in
    left.(node - n) <- tree.(i);
    right.(node - n) <- tree.(j);
    w.(i) <- !best;
    leaf.(i) <- false;
    tree.(i) <- node;
    let rest = m - j - 1 in
    Array.blit w (j + 1) w j rest;
    Array.blit leaf (j + 1) leaf j rest;
    Array.blit tree (j + 1) tree j rest;
    live := m - 1
  done;
  (* Depths top-down: a merged node is made after its children, so the
     root is the last one and each node's depth is set before its
     children's. *)
  let depth = Array.make (max 1 ((2 * n) - 1)) 0 in
  for node = (2 * n) - 2 downto n do
    let d = depth.(node) + 1 in
    depth.(left.(node - n)) <- d;
    depth.(right.(node - n)) <- d
  done;
  Array.init n (fun i -> max 1 depth.(i))

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
