(* ContAccess (§4): comparisons between values, and predicates pushed
   into containers, evaluated on compressed codes where the codes decide
   them exactly and on decompressed values otherwise. *)

open Storage
open Xquery
open Exec_base
open Value_access

(* [needle] occurs in [hay]; compared in place, without a substring per
   offset. *)
let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec matches_at i j =
    j = n || (String.unsafe_get hay (i + j) = String.unsafe_get needle j && matches_at i (j + 1))
  in
  let rec go i = i + n <= h && (matches_at i 0 || go (i + 1)) in
  go 0

type atom = { a_item : item; a_str : string Lazy.t; a_num : float option Lazy.t }

let rec atomize ctx it =
  match it with
  | Att (_, v) -> atomize ctx v
  | Num f -> { a_item = it; a_str = lazy (atom_string ctx it); a_num = Lazy.from_val (Some f) }
  | Bool b ->
    { a_item = it; a_str = lazy (atom_string ctx it);
      a_num = Lazy.from_val (Some (if b then 1.0 else 0.0)) }
  | Node _ | Cval _ | Str _ | Elem _ ->
    let a_str = lazy (atom_string ctx it) in
    { a_item = it; a_str; a_num = lazy (float_of_string_opt (String.trim (Lazy.force a_str))) }

let codes_replace_values ?(const : atom option) cls (conts : Container.t list) : bool =
  match conts with
  | [] -> false
  | c0 :: rest ->
    List.for_all (fun (c : Container.t) -> c.Container.model_id = c0.Container.model_id) rest
    && Compress.Codec.supports c0.Container.algorithm cls
    &&
    match const with
    | None -> true
    | Some k -> (
      let numeric = Option.is_some (Lazy.force k.a_num) in
      match c0.Container.model with Compress.Codec.M_numeric _ -> numeric | _ -> not numeric)

(* A codec that decides [=] on codes decides its negation too. *)
let cmp_class : Ast.cmp_op -> [> `Eq | `Ineq ] = function
  | Ast.Eq | Ast.Neq -> `Eq
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> `Ineq

let compare_atoms a b : int =
  match a.a_item, b.a_item with
  | Cval x, Cval y when codes_replace_values `Ineq [ x.cont; y.cont ] ->
    String.compare x.code y.code
  | _ -> (
    match Lazy.force a.a_num, Lazy.force b.a_num with
    | Some x, Some y -> compare x y
    | _ -> String.compare (Lazy.force a.a_str) (Lazy.force b.a_str))

let compare_items ctx a b = compare_atoms (atomize ctx a) (atomize ctx b)

(* Whether [op] holds of a comparison result [c]. *)
let holds (op : Ast.cmp_op) (c : int) : bool =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let cmp_holds ctx op a b =
  let a = atomize ctx a and b = atomize ctx b in
  match a.a_item, b.a_item with
  | Cval x, Cval y when codes_replace_values (cmp_class op) [ x.cont; y.cont ] ->
    note_cmp ctx ~compressed:true 1;
    holds op (String.compare x.code y.code)
  | _ ->
    note_cmp ctx ~compressed:false 1;
    holds op (compare_atoms a b)
(* ------------------------------------------------------------------ *)
(* Compressed-domain container filters                                 *)
(* ------------------------------------------------------------------ *)

(* A comparison's literal side, as the item it evaluates to. *)
let const_of_expr = function
  | Ast.Literal_string s -> Some (Str s)
  | Ast.Literal_number f -> Some (Num f)
  | _ -> None

(* Every record of [cont] whose code [keep] accepts, each a comparison
   after decompression (the §3 cost). *)
let scan_records ctx (cont : Container.t) (keep : string -> bool) : Container.record list =
  note_cmp ctx ~compressed:false (Container.length cont);
  Array.to_list (Container.scan cont)
  |> List.filter (fun (r : Container.record) -> keep r.Container.code)

(* Records of [cont] satisfying [value op const]: interval searches on
   codes where [codes_replace_values] allows it ([!=] is the records
   below the constant's code and those above it, or every record when
   no packed value equals the constant), otherwise a scan that
   decompresses every value and compares it by [compare_atoms] (the §3
   cost). *)
let filter_records ctx (cont : Container.t) (op : Ast.cmp_op) (const : item) :
    Container.record list =
  let k = atomize ctx const in
  (* the constant's own code, if it has one, and the code of the
     largest value <= it ([`Floor]) and of the smallest value >= it
     ([`Ceil]) *)
  let codes =
    if not (codes_replace_values ~const:k (cmp_class op) [ cont ]) then None
    else
      match cont.Container.model, Lazy.force k.a_num, const with
      | Compress.Codec.M_numeric m, Some f, _ ->
        Some (Compress.Ipack.pack_exact m f, fun dir -> Compress.Ipack.pack_bound m ~dir f)
      | _, _, Str s ->
        let code = Container.compress_constant cont s in
        Some (Some code, fun _ -> code)
      | _ -> None
  in
  let scan () =
    scan_records ctx cont (fun code ->
        holds op (compare_atoms (atomize ctx (Cval { cont; code })) k))
  in
  (* every record an interval search matches is a comparison that
     never decompressed *)
  let select ?lo ?hi () =
    let records = Container.lookup_range cont ?lo ?hi () in
    note_cmp ctx ~compressed:true (List.length records);
    records
  in
  match codes, op with
  | None, _ -> scan ()
  | Some (Some c, _), Ast.Eq -> select ~lo:(`Incl c) ~hi:(`Incl c) ()
  | Some (Some c, _), Ast.Neq -> select ~hi:(`Excl c) () @ select ~lo:(`Excl c) ()
  (* no packed value equals the constant *)
  | Some (None, _), Ast.Eq -> []
  | Some (None, _), Ast.Neq -> select ()
  | Some (_, bound), Ast.Lt -> select ~hi:(`Excl (bound `Ceil)) ()
  | Some (_, bound), Ast.Le -> select ~hi:(`Incl (bound `Floor)) ()
  | Some (_, bound), Ast.Gt -> select ~lo:(`Excl (bound `Floor)) ()
  | Some (_, bound), Ast.Ge -> select ~lo:(`Incl (bound `Ceil)) ()

(* contains / starts-with over a container. starts-with runs in the
   compressed domain for Huffman (bit-prefix match) and for
   order-preserving codecs (prefix range); contains always decompresses. *)
let filter_records_textual ctx (cont : Container.t) ~(kind : [ `Contains | `Starts_with ])
    (needle : string) : Container.record list =
  match kind with
  | `Starts_with -> (
    match cont.Container.model with
    | Compress.Codec.M_huffman h ->
      (* bit-prefix match on codes: every record is tested, none decompress *)
      note_cmp ctx ~compressed:true (Container.length cont);
      let prefix_bits = Compress.Huffman.compress_prefix h needle in
      Array.to_list (Container.scan cont)
      |> List.filter (fun (r : Container.record) ->
             Compress.Huffman.matches_prefix ~prefix_bits r.Container.code)
    | Compress.Codec.M_alm m ->
      let (lo, hi) = Compress.Alm.prefix_range m needle in
      let records =
        Container.lookup_range cont ~lo:(`Incl lo) ?hi:(Option.map (fun c -> `Excl c) hi) ()
      in
      note_cmp ctx ~compressed:true (List.length records);
      records
    | _ ->
      scan_records ctx cont (fun code ->
          String.starts_with ~prefix:needle (decompress_cval cont code)))
  | `Contains ->
    scan_records ctx cont (fun code -> contains_substring (decompress_cval cont code) needle)

let rec ancestor_at ctx id hops =
  if hops <= 0 then id else ancestor_at ctx (Structure_tree.parent ctx.repo.Repository.tree id) (hops - 1)

(* Map a matched record's parent pointer to the element [hops] levels
   above its owner. Attribute records point at the attribute node, whose
   parent is the owning element. *)
let record_owner ctx (cont : Container.t) ~hops parent : int =
  match cont.Container.kind with
  | Container.Text -> ancestor_at ctx parent hops
  | Container.Attribute ->
    ancestor_at ctx (Structure_tree.parent ctx.repo.Repository.tree parent) hops

(* ------------------------------------------------------------------ *)
(* Predicate analysis and pushdown                                     *)
(* ------------------------------------------------------------------ *)

(* Recognized predicate shapes that can be pushed into containers. *)
type pushable =
  | P_value of Ast.cmp_op * Ast.step list * item
  | P_textual of [ `Contains | `Starts_with ] * Ast.step list * string
  | P_exists of Ast.step list

let recognize_pushable (e : Ast.expr) : pushable option =
  match e with
  | Ast.Cmp (op, Ast.Path (Ast.Context, vsteps), rhs) ->
    Option.map (fun c -> P_value (op, vsteps, c)) (const_of_expr rhs)
  | Ast.Cmp (op, lhs, Ast.Path (Ast.Context, vsteps)) ->
    Option.map (fun c -> P_value (Ast.flip op, vsteps, c)) (const_of_expr lhs)
  | Ast.Contains (Ast.Path (Ast.Context, vsteps), Ast.Literal_string s) ->
    Some (P_textual (`Contains, vsteps, s))
  | Ast.Starts_with (Ast.Path (Ast.Context, vsteps), Ast.Literal_string s) ->
    Some (P_textual (`Starts_with, vsteps, s))
  | Ast.Path (Ast.Context, esteps) -> Some (P_exists esteps)
  | _ -> None

(* The containers holding the immediate text of these summary nodes. *)
let text_containers ctx (snodes : Summary.node list) : Container.t list =
  List.filter_map
    (fun (sn : Summary.node) -> Option.map (container ctx) sn.Summary.text_container)
    snodes

let resolve_value_path ?(concat_semantics = false) ctx (snodes : Summary.node list)
    (vsteps : Ast.step list) : (Container.t * int) list option =
  let text_containers snodes hops =
    match text_containers ctx snodes with
    | [] -> None
    | conts -> Some (List.map (fun c -> (c, hops)) conts)
  in
  (* [distinct_parents] is precomputed per container at build/load time:
     checking it per query would scan, decoding every block *)
  let one_text_per_instance (sn : Summary.node) =
    match sn.Summary.text_container with
    | Some cid ->
      let cont = container ctx cid in
      Array.length sn.Summary.ids = Container.length cont && cont.Container.distinct_parents
    | None -> false
  in
  let rec go snodes hops = function
    | [] ->
      (* bare element comparison *)
      let sound (sn : Summary.node) =
        one_text_per_instance sn
        && List.for_all
             (fun (d : Summary.node) -> d == sn || d.Summary.text_container = None)
             (Summary.descend_all sn [])
      in
      if List.for_all sound snodes then text_containers snodes hops else None
    | [ ({ Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } : Ast.step) ] ->
      (* text() value comparisons are existential over the text nodes, so
         per-record matching is exact; contains/starts-with concatenate
         the sequence, so they additionally need one text node per
         instance *)
      if (not concat_semantics) || List.for_all one_text_per_instance snodes then
        text_containers snodes hops
      else None
    | [ ({ Ast.axis = Ast.Attribute; test = Ast.Name _; predicates = [] } as st) ] ->
      (* attribute records resolve to the owning element at this level *)
      text_containers (Summary_access.advance_snodes ctx.repo.Repository.dict snodes st) hops
    | ({ Ast.axis = Ast.Child; test = Ast.Name _; predicates = [] } as st) :: rest -> (
      match Summary_access.advance_snodes ctx.repo.Repository.dict snodes st with
      | [] -> None
      | next -> go next (hops + 1) rest)
    | _ -> None
  in
  if snodes = [] then None else go snodes 0 vsteps

(* What a pushed-down predicate reads, resolved from the summary before
   any data is touched: the containers a comparison filters (each with
   its hops up to the candidate element), or the summary nodes whose
   instances answer an existence test. *)
type pushdown =
  | Filter of {
      kind : string;  (** "eq", "range" or "wild", for the ledger *)
      resolved : (Container.t * int) list;
      records : Container.t -> Container.record list;
    }
  | Exists of { targets : Summary.node list; hops : int }

let pushdown_reads ctx (snodes : Summary.node list) (p : pushable) : pushdown option =
  match p with
  | P_value (op, vsteps, const) ->
    Option.map
      (fun resolved ->
        Filter
          { kind = (match op with Ast.Eq | Ast.Neq -> "eq" | _ -> "range"); resolved;
            records = (fun cont -> filter_records ctx cont op const) })
      (resolve_value_path ctx snodes vsteps)
  | P_textual (kind, vsteps, needle) ->
    Option.map
      (fun resolved ->
        Filter
          { kind = "wild"; resolved;
            records = (fun cont -> filter_records_textual ctx cont ~kind needle) })
      (resolve_value_path ~concat_semantics:true ctx snodes vsteps)
  | P_exists esteps -> (
    (* existence of a child path: ids of the target snodes mapped up *)
    let rec advance snodes hops = function
      | [] -> Some (snodes, hops)
      | ({ Ast.axis = Ast.Child; test = Ast.Name _; predicates = [] } as st) :: rest ->
        let next = Summary_access.advance_snodes ctx.repo.Repository.dict snodes st in
        if next = [] then None else advance next (hops + 1) rest
      | ({ Ast.axis = Ast.Attribute; test = Ast.Name _; predicates = [] } as st) :: [] ->
        let next = Summary_access.advance_snodes ctx.repo.Repository.dict snodes st in
        if next = [] then None else Some (next, hops + 1)
      | _ -> None
    in
    match advance snodes 0 esteps with
    | None | Some (_, 0) -> None
    | Some (targets, hops) -> Some (Exists { targets; hops }))

let pushdown_attrs = function
  | Filter { resolved; _ } ->
    let paths = List.map (fun ((c : Container.t), _) -> c.Container.path) resolved in
    [ ("containers", String.concat "," paths) ]
  | Exists { targets; _ } ->
    let paths = List.map (fun (sn : Summary.node) -> sn.Summary.path) targets in
    [ ("summary_paths", String.concat "," paths) ]

let pushdown_matches ctx (pd : pushdown) : int array =
  match pd with
  | Filter { kind; resolved; records } ->
    let ids =
      List.concat_map
        (fun ((cont : Container.t), hops) ->
          let records = records cont in
          Xquec_obs.Ledger.note_pred ~container:cont.Container.path ~kind
            ~candidates:(Container.length cont) ~matches:(List.length records);
          List.map
            (fun (r : Container.record) -> record_owner ctx cont ~hops r.Container.parent)
            records)
        resolved
    in
    let arr = Array.of_list ids in
    Array.sort compare arr;
    arr
  | Exists { targets; hops } ->
    List.iter
      (fun (sn : Summary.node) ->
        let n = Array.length sn.Summary.ids in
        Xquec_obs.Ledger.note_pred ~container:sn.Summary.path ~kind:"exists" ~candidates:n
          ~matches:n)
      targets;
    let ids =
      List.concat_map
        (fun (sn : Summary.node) ->
          Array.to_list sn.Summary.ids |> List.map (fun id -> ancestor_at ctx id hops))
        targets
    in
    Array.of_list (List.sort_uniq compare ids)
(* ------------------------------------------------------------------ *)
(* Static container resolution                                         *)
(* ------------------------------------------------------------------ *)

let static_value_containers ctx env (e : Ast.expr) : Container.t list option =
  match e with
  | Ast.Path (((Ast.Doc _ | Ast.Var _ | Ast.Context) as src), steps) ->
    Option.map (List.map fst)
      (resolve_value_path ctx (Summary_access.env_static_snodes ctx env src) steps)
  | Ast.Var v -> (
    (* a variable bound to attribute values ([for $x in P/@a],
       [distinct-values(P/@a)]) holds values of their containers *)
    let attr_container (sn : Summary.node) =
      if sn.Summary.tag >= 0 && is_attr_code ctx sn.Summary.tag then
        Option.map (container ctx) sn.Summary.text_container
      else None
    in
    match List.assoc_opt v env with
    | Some { snodes = _ :: _ as snodes; _ } ->
      let conts = List.filter_map attr_container snodes in
      if List.compare_lengths conts snodes = 0 then Some conts else None
    | _ -> None)
  | _ -> None

let note_cmp_obs ctx env (op : Ast.cmp_op) ~(a : Ast.expr) ~(b : Ast.expr) ~(xs : item list)
    ~(ys : item list) ~(holds : bool) : unit =
  let kind = match op with Ast.Eq | Ast.Neq -> "eq" | _ -> "range" in
  let matches = if holds then 1 else 0 in
  let note (c : Container.t) =
    Xquec_obs.Ledger.note_pred ~container:c.Container.path ~kind ~candidates:1 ~matches
  in
  let static e =
    match static_value_containers ctx env e with Some (_ :: _ as cs) -> Some cs | _ -> None
  in
  (* bare-element comparisons fail the exact resolution (atomization may
     span several text nodes) but still read the immediate-text
     containers of the path's summary nodes — good enough to attribute *)
  let loose e =
    match text_containers ctx (Summary_access.env_static_snodes ctx env e) with
    | [] -> None
    | cs -> Some cs
  in
  let from_items items =
    List.find_map
      (function
        | Cval { cont; _ } | Att (_, Cval { cont; _ }) -> Some [ cont ]
        | Node id when id >= 0 -> (
          (* an element operand atomizes its text: attribute the
             comparison to the node's own immediate-text container *)
          let tree = ctx.repo.Repository.tree in
          if Structure_tree.value_count tree id = 0 then None
          else Some [ container ctx (Structure_tree.value_container tree id) ])
        | _ -> None)
      items
  in
  match static a, static b with
  | Some cs, _ | None, Some cs -> List.iter note cs
  | None, None -> (
    match loose a, loose b with
    | Some cs, _ | None, Some cs -> List.iter note cs
    | None, None -> (
      match from_items xs, from_items ys with
      | Some cs, _ | None, Some cs -> List.iter note cs
      | None, None -> ()))
