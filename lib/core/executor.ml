(* XQueC query executor (§4): evaluates the XQuery subset directly over
   the compressed repository.

   This module is the recursive core: [eval] and the operators that
   evaluate subexpressions (paths and their predicates, aggregates,
   construction, the FLWOR clause pipeline, hash joins and
   decorrelation). The physical operators it drives live in their own
   modules, named after §4's:
   - [Summary_access]: StructureSummaryAccess and structural navigation;
     paths [$v/R] rooted at a FOR variable evaluate once for all of the
     variable's bindings (set-at-a-time, Fig. 5), by a pre-order
     interval merge against the summary's id lists;
   - [Cont_access]: ContAccess, value comparisons and predicates pushed
     into containers, on compressed codes whenever the codes decide
     them exactly, otherwise on decompressed values (the cost the §3
     model and partitioner exist to avoid);
   - [Value_join]: join keys, the build-once index of the hash join,
     sorted probe and decorrelation, and the block merge join;
   - [Value_access]: TextContent, Decompress and XMLSerialize: values
     decompress as late as possible, only when returned or forced
     through string functions;
   - [Exec_base]: items, bindings, the context and the profiling shims.
   Uncorrelated FOR/LET sources are evaluated once; nested FLWORs
   correlated through a single comparison (the XMark Q8/Q9/Q10 pattern)
   are decorrelated into a build-once/probe-many join table. *)

open Storage
open Xquery
open Exec_base
open Value_access

type item = Exec_base.item =
  | Node of int
  | Cval of { cont : Container.t; code : string }
  | Att of string * item
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of elem

and elem = Exec_base.elem = {
  e_tag : string;
  e_attrs : (string * item list) list;
  e_kids : kid list;
}

and kid = Exec_base.kid = Kid_node of int | Kid_elem of elem | Kid_text of item list

exception Eval_error = Exec_base.Eval_error

type join_stats = Value_join.join_stats = {
  j_block_joins : int;
  j_blocks_probed : int;
  j_blocks_skipped : int;
  j_skipped_bytes : int;
}

let join_stats = Value_join.join_stats

let reset_join_stats = Value_join.reset_join_stats

let set_block_join = Value_join.set_block_join

let short_expr ?(limit = 48) (e : Ast.expr) : string =
  let s = Ast.to_string e in
  if String.length s > limit then String.sub s 0 (limit - 3) ^ "..." else s

let step_label (st : Ast.step) : string =
  let axis =
    match st.Ast.axis with
    | Ast.Child -> "child"
    | Ast.Descendant -> "descendant"
    | Ast.Attribute -> "attribute"
  in
  let test =
    match st.Ast.test with Ast.Name n -> n | Ast.Any -> "*" | Ast.Text -> "text()"
  in
  axis ^ "::" ^ test

let ebv ctx (b : binding) =
  match b.seq with
  | All_nodes snodes ->
    List.exists
      (fun (sn : Summary.node) -> sn.Summary.tag < 0 || Array.length sn.Summary.ids > 0)
      snodes
  | All_values _ -> materialize ctx b <> []
  | Mat [] -> false
  | Mat [ Bool b ] -> b
  | Mat [ Str s ] -> s <> ""
  | Mat [ Num f ] -> f <> 0.0 && not (Float.is_nan f)
  | Mat _ -> true

let singleton_number ctx (b : binding) =
  match materialize ctx b with
  | [ it ] -> (
    match atom_number ctx it with
    | Some f -> f
    | None -> err "cannot convert %S to a number" (atom_string ctx it))
  | [] -> Float.nan
  | _ -> err "expected a singleton numeric value"

let prof_binding ctx ~kind (op : unit -> string) (f : unit -> binding) : binding =
  prof_rows ctx ~kind op ~rows:(count ctx) f

module Sset = Analysis.Sset

let lookup env v =
  match List.assoc_opt v env with
  | Some b -> b
  | None -> err "unbound variable $%s" v

let is_atom = function Cval _ | Str _ | Num _ | Bool _ -> true | Node _ | Att _ | Elem _ -> false

(* A constructed element's content: stored nodes and values kept as
   they are, each run of atoms one text node (attribute items, which
   become attributes, do not break a run). *)
let rec content (items : item list) : kid list =
  match items with
  | [] -> []
  | Att _ :: rest -> content rest
  | Node id :: rest -> Kid_node id :: content rest
  | Elem e :: rest -> Kid_elem e :: content rest
  | (Cval _ | Str _ | Num _ | Bool _) :: _ ->
    (* all atoms (the common case) stay one list, not copied by [run]
       (Q10 allocates 4% fewer minor words) *)
    if List.for_all is_atom items then [ Kid_text items ]
    else begin
      let rec run = function
        | Att _ :: rest -> run rest
        | (Cval _ | Str _ | Num _ | Bool _) as it :: rest ->
          let atoms, rest = run rest in
          (it :: atoms, rest)
        | rest -> ([], rest)
      in
      let atoms, rest = run items in
      Kid_text atoms :: content rest
    end

let rec dyn_attrs = function
  | [] -> []
  | Att (n, v) :: rest -> (n, [ v ]) :: dyn_attrs rest
  | _ :: rest -> dyn_attrs rest

let rec eval ctx (env : env) (e : Ast.expr) : binding =
  match e with
  | Ast.Literal_string s -> mat [ Str s ]
  | Ast.Literal_number f -> mat [ Num f ]
  | Ast.Var v -> lookup env v
  | Ast.Context -> lookup env "."
  | Ast.Doc _ ->
    let root = ctx.repo.Repository.summary.Summary.root in
    { seq = All_nodes [ root ]; snodes = [ root ]; origin = Loose }
  | Ast.Path (Ast.Var v, steps) -> (
    let b = lookup env v in
    match b.origin with
    | Member (bs, p) when Summary_access.batchable steps -> (
      match Summary_access.set_batch ctx ~var:v bs steps with
      | Some bt ->
        let s = bt.b_slot_of.(p) in
        let origin =
          match bt.b_union with Some u -> Run (u, bt.b_starts.(s)) | None -> Loose
        in
        { seq = Mat bt.b_runs.(s); snodes = []; origin }
      | None -> eval_steps ctx env b steps)
    | Member _ | Loose | Run _ -> eval_steps ctx env b steps)
  | Ast.Path (src, steps) -> eval_steps ctx env (eval ctx env src) steps
  | Ast.Flwor (clauses, ret) -> eval_flwor ctx env clauses ret
  | Ast.If (c, t, f) -> if ebv ctx (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Cmp (op, a, b) ->
    let xs = materialize ctx (eval ctx env a) and ys = materialize ctx (eval ctx env b) in
    let holds =
      List.exists (fun x -> List.exists (fun y -> Cont_access.cmp_holds ctx op x y) ys) xs
    in
    Cont_access.note_cmp_obs ctx env op ~a ~b ~xs ~ys ~holds;
    mat [ Bool holds ]
  | Ast.Arith (op, a, b) ->
    let x = singleton_number ctx (eval ctx env a)
    and y = singleton_number ctx (eval ctx env b) in
    let v =
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Mod -> Float.rem x y
    in
    mat [ Num v ]
  | Ast.And (a, b) -> mat [ Bool (ebv ctx (eval ctx env a) && ebv ctx (eval ctx env b)) ]
  | Ast.Or (a, b) -> mat [ Bool (ebv ctx (eval ctx env a) || ebv ctx (eval ctx env b)) ]
  | Ast.Not a -> mat [ Bool (not (ebv ctx (eval ctx env a))) ]
  | Ast.Aggregate (agg, e) -> eval_aggregate ctx env agg e
  | Ast.Contains (a, b) ->
    let hay = eval_string ctx env "" a in
    mat [ Bool (Cont_access.contains_substring hay (eval_string ctx env "" b)) ]
  | Ast.Starts_with (a, b) ->
    let hay = eval_string ctx env "" a in
    mat [ Bool (String.starts_with ~prefix:(eval_string ctx env "" b) hay) ]
  | Ast.Ftcontains (a, words) ->
    let hay = String.lowercase_ascii (eval_string ctx env " " a) in
    mat [ Bool (List.for_all (Cont_access.contains_substring hay) words) ]
  | Ast.Empty e -> mat [ Bool (count ctx (eval ctx env e) = 0) ]
  | Ast.Exists e -> mat [ Bool (count ctx (eval ctx env e) > 0) ]
  | Ast.Distinct_values e -> eval_distinct ctx env e
  | Ast.String_of e -> mat [ Str (eval_string ctx env "" e) ]
  | Ast.Number_of e -> mat [ Num (singleton_number ctx (eval ctx env e)) ]
  | Ast.Name_of e -> (
    match materialize ctx (eval ctx env e) with
    | Node id :: _ -> mat [ Str (local_name ctx (Structure_tree.tag ctx.repo.Repository.tree id)) ]
    | Elem e :: _ -> mat [ Str e.e_tag ]
    | Att (n, _) :: _ -> mat [ Str n ]
    | _ -> mat [ Str "" ])
  | Ast.Some_satisfies (v, e, cond) -> quantified ctx env List.exists v e cond
  | Ast.Every_satisfies (v, e, cond) -> quantified ctx env List.for_all v e cond
  | Ast.Element (tag, attrs, kids) -> mat [ Elem (construct ctx env tag attrs kids) ]
  | Ast.Sequence es -> mat (List.concat_map (fun e -> materialize ctx (eval ctx env e)) es)

(* The string values of [e]'s items, joined by [sep]. *)
and eval_string ctx env sep e : string = joined_string ctx ~sep (materialize ctx (eval ctx env e))

(* [some]/[every $v in e satisfies cond], as [test] over the bindings. *)
and quantified ctx env test v e cond : binding =
  let qctx = quiet ctx in
  let holds b = ebv qctx (eval qctx ((v, b) :: env) cond) in
  mat [ Bool (test holds (item_bindings ctx (eval ctx env e))) ]

(* --- Path steps --- *)

(* A path's steps, one operator each. A step the summary answered keeps
   its result symbolic, and every step before it was answered so too: the
   last such step records [summary_nodes], once for the whole path. *)
and eval_steps ctx env (b : binding) (steps : Ast.step list) : binding =
  let last = ref None in
  let keep node r =
    match r.seq with
    | All_nodes snodes | All_values snodes -> last := Some (node, snodes)
    | Mat _ -> ()
  in
  let rows = count ctx in
  let b =
    List.fold_left
      (fun b st ->
        prof_rows ctx ~kind:"step" (fun () -> step_label st) ~rows ~keep (fun () ->
            eval_step ctx env b st))
      b steps
  in
  Option.iter
    (fun (node, snodes) ->
      Xquec_obs.Explain.add_attrs node [ ("summary_nodes", string_of_int (List.length snodes)) ])
    !last;
  b

and eval_step ctx env (b : binding) (st : Ast.step) : binding =
  let has_pos =
    List.exists
      (function Ast.Pos _ | Ast.Pos_last -> true | Ast.Cond _ -> false)
      st.Ast.predicates
  in
  match st.Ast.axis, st.Ast.test with
  | (Ast.Child | Ast.Descendant), Ast.Text -> (
    match b.seq with
    | All_nodes snodes when st.Ast.predicates = [] && st.Ast.axis = Ast.Child ->
      { seq = All_values snodes; snodes = []; origin = Loose }
    | _ ->
      let tree = ctx.repo.Repository.tree in
      let rec texts it =
        match it with
        | Node id when id < 0 -> []
        | Node id when st.Ast.axis = Ast.Child -> node_text_values ctx id
        | Node id ->
          Structure_tree.descendants tree id
          |> List.filter (fun d -> not (is_attr_code ctx (Structure_tree.tag tree d)))
          |> List.cons id
          |> List.concat_map (node_text_values ctx)
        | Elem e ->
          (* a constructed element's text nodes, and on the descendant
             axis those of its stored and constructed subtrees *)
          List.concat_map
            (function
              | Kid_text atoms -> [ Str (joined_string ctx ~sep:" " atoms) ]
              | Kid_node id when st.Ast.axis = Ast.Descendant -> texts (Node id)
              | Kid_elem e when st.Ast.axis = Ast.Descendant -> texts (Elem e)
              | Kid_node _ | Kid_elem _ -> [])
            e.e_kids
        | Att _ | Cval _ | Str _ | Num _ | Bool _ -> []
      in
      let items = List.concat_map texts (materialize ctx b) in
      { seq = Mat items; snodes = []; origin = Loose })
  | Ast.Attribute, Ast.Name n -> (
    let asnodes = Summary_access.advance_snodes ctx.repo.Repository.dict b.snodes st in
    match b.seq with
    | All_nodes _ when st.Ast.predicates = [] && asnodes <> [] ->
      { seq = All_values asnodes; snodes = asnodes; origin = Loose }
    | _ ->
      let code = tag_code ctx ("@" ^ n) in
      let items =
        materialize ctx b
        |> List.concat_map (fun it ->
               match it with
               | Node id when id < 0 -> []
               | Node id -> (
                 match code with
                 | None -> []
                 | Some code ->
                   Structure_tree.children_with_tag ctx.repo.Repository.tree id code
                   |> List.filter_map (attr_node_value ctx)
                   |> List.map (fun v -> Att (n, v)))
               | Elem e -> (
                 match List.assoc_opt n e.e_attrs with
                 | Some v -> [ Att (n, Str (joined_string ctx ~sep:" " v)) ]
                 | None -> [])
               | Att _ | Cval _ | Str _ | Num _ | Bool _ -> [])
      in
      { seq = Mat items; snodes = asnodes; origin = Loose })
  | Ast.Attribute, (Ast.Any | Ast.Text) -> err "unsupported attribute step"
  | (Ast.Child | Ast.Descendant), (Ast.Name _ | Ast.Any) -> (
    let new_snodes = Summary_access.advance_snodes ctx.repo.Repository.dict b.snodes st in
    match b.seq with
    | All_nodes _ when (not has_pos) && new_snodes <> [] ->
      if st.Ast.predicates = [] then
        { seq = All_nodes new_snodes; snodes = new_snodes; origin = Loose }
      else begin
        let candidates = Summary.merged_ids new_snodes in
        let filtered = apply_cond_predicates ctx env new_snodes candidates st.Ast.predicates in
        {
          seq = Mat (List.map (fun id -> Node id) (Array.to_list filtered));
          snodes = new_snodes;
          origin = Loose;
        }
      end
    | _ ->
      (* navigate per context node, applying predicates per context *)
      let tree = ctx.repo.Repository.tree in
      (* the virtual document node (-1) has node 0 as its only child and
         every node as descendant *)
      let node_children id =
        if id = doc_node_id then [ 0 ] else Structure_tree.child_nodes tree id
      in
      let desc_range id =
        if id = doc_node_id then (0, Structure_tree.node_count tree - 1)
        else (id + 1, Structure_tree.last_descendant tree id)
      in
      let code = match st.Ast.test with Ast.Name n -> tag_code ctx n | _ -> None in
      let kids_of id =
        match st.Ast.axis, st.Ast.test with
        | Ast.Child, Ast.Name _ -> (
          match code with
          | None -> []
          | Some code ->
            node_children id |> List.filter (fun c -> Structure_tree.tag tree c = code))
        | Ast.Child, Ast.Any ->
          node_children id
          |> List.filter (fun c -> not (is_attr_code ctx (Structure_tree.tag tree c)))
        | Ast.Descendant, Ast.Name _ -> (
          match code with
          | None -> []
          | Some code ->
            let (first, stop) = desc_range id in
            if new_snodes <> [] then
              (* slice the summary's id lists to this subtree's pre range *)
              Summary_access.ids_between (Summary.merged_ids new_snodes) first stop
            else if id = doc_node_id then
              (* whole-document tag lookup: one scan of the tag array *)
              (match Structure_tree.node_count tree with
              | 0 -> []
              | _ ->
                let rest = Structure_tree.descendants_with_tag tree 0 code in
                if Structure_tree.tag tree 0 = code then 0 :: rest else rest)
            else
              (* no summary pruning available: scan the tag array over
                 the subtree's pre-order interval *)
              Structure_tree.descendants_with_tag tree id code)
        | Ast.Descendant, Ast.Any ->
          let (first, stop) = desc_range id in
          List.init (stop - first + 1) (fun i -> first + i)
          |> List.filter (fun d -> not (is_attr_code ctx (Structure_tree.tag tree d)))
        | _, Ast.Text | Ast.Attribute, _ -> assert false
      in
      (* one context's selected nodes, [item] making each an item *)
      let apply_predicates item kids =
        List.fold_left
          (fun kids p ->
            match p with
            | Ast.Pos i -> (
              match List.nth_opt kids (i - 1) with Some k -> [ k ] | None -> [])
            | Ast.Pos_last -> (
              match List.rev kids with k :: _ -> [ k ] | [] -> [])
            | Ast.Cond e ->
              let qctx = quiet ctx in
              List.filter
                (fun k -> ebv qctx (eval qctx (("." , mat [ item k ]) :: env) e))
                kids)
          kids st.Ast.predicates
      in
      let per_context id = apply_predicates (fun k -> Node k) (kids_of id) in
      (* a constructed element's children (or descendants, in document
         order) that pass the test: its stored subtrees' nodes and its
         nested constructed elements *)
      let node_passes id =
        let t = Structure_tree.tag tree id in
        match code with Some c -> t = c | None -> st.Ast.test = Ast.Any && not (is_attr_code ctx t)
      in
      let rec elem_kids e =
        List.concat_map
          (function
            | Kid_node id when id >= 0 ->
              let self = if node_passes id then [ Node id ] else [] in
              if st.Ast.axis = Ast.Child then self
              else
                self
                @ List.filter_map
                    (fun d -> if node_passes d then Some (Node d) else None)
                    (Structure_tree.descendants tree id)
            | Kid_elem k ->
              let self =
                match st.Ast.test with
                | Ast.Name n when n <> k.e_tag -> []
                | _ -> [ Elem k ]
              in
              if st.Ast.axis = Ast.Child then self else self @ elem_kids k
            | Kid_node _ | Kid_text _ -> [])
          e.e_kids
      in
      let items = materialize ctx b in
      if List.exists (function Elem _ -> true | _ -> false) items then
        {
          seq =
            Mat
              (List.concat_map
                 (function
                   | Node id -> List.map (fun k -> Node k) (per_context id)
                   | Elem e -> apply_predicates Fun.id (elem_kids e)
                   | Att _ | Cval _ | Str _ | Num _ | Bool _ -> [])
                 items);
          snodes = [];
          origin = Loose;
        }
      else begin
        let ids =
          List.concat_map
            (function Node id -> per_context id | _ -> [])
            items
        in
        let ids = if st.Ast.axis = Ast.Descendant then List.sort_uniq compare ids else ids in
        { seq = Mat (List.map (fun id -> Node id) ids); snodes = new_snodes; origin = Loose }
      end)

(* Filter candidate ids (doc order) by Cond predicates, using container
   pushdown when the predicate shape allows, per-node evaluation
   otherwise. *)
and apply_cond_predicates ctx env snodes (candidates : int array) (preds : Ast.predicate list) :
    int array =
  List.fold_left
    (fun cands p ->
      match p with
      | Ast.Pos _ | Ast.Pos_last -> cands (* handled by the navigation path *)
      | Ast.Cond e -> (
        let per_node cands =
          prof_rows ctx ~kind:"where"
            (fun () -> "filter [" ^ short_expr e ^ "]")
            ~rows:Array.length
            (fun () ->
              let qctx = quiet ctx in
              Array.to_list cands
              |> List.filter (fun id ->
                     ebv qctx (eval qctx (("." , mat [ Node id ]) :: env) e))
              |> Array.of_list)
        in
        let pushdown = Cont_access.pushdown_reads ctx snodes in
        match Option.bind (Cont_access.recognize_pushable e) pushdown with
        | None -> per_node cands
        | Some pd ->
          prof_rows ctx ~kind:"pushdown"
            (fun () -> "pushdown [" ^ short_expr e ^ "]")
            ~attrs:(fun _ -> Cont_access.pushdown_attrs pd)
            ~rows:Array.length
            (fun () ->
              let matched = Cont_access.pushdown_matches ctx pd in
              Array.to_list cands
              |> List.filter (Summary_access.mem_sorted matched)
              |> Array.of_list)))
    candidates preds

(* --- Aggregates, distinct --- *)

and eval_aggregate ctx env agg e : binding =
  let name =
    match agg with
    | Ast.Count -> "count"
    | Ast.Sum -> "sum"
    | Ast.Avg -> "avg"
    | Ast.Min -> "min"
    | Ast.Max -> "max"
  in
  prof_binding ctx ~kind:"aggregate" (fun () -> name ^ "()") @@ fun () ->
  let b = eval ctx env e in
  match agg with
  | Ast.Count -> mat [ Num (float_of_int (count ctx b)) ]
  | Ast.Sum | Ast.Avg -> (
    let items = materialize ctx b in
    let sum =
      List.fold_left (fun acc it -> acc +. Option.value ~default:0.0 (atom_number ctx it)) 0.0 items
    in
    match agg, items with
    | Ast.Avg, [] -> mat []
    | Ast.Avg, _ -> mat [ Num (sum /. float_of_int (List.length items)) ]
    | _ -> mat [ Num sum ])
  | Ast.Min | Ast.Max -> (
    match materialize ctx b with
    | [] -> mat []
    | first :: rest ->
      let better a b =
        let c = Cont_access.compare_items ctx a b in
        match agg with Ast.Min -> c <= 0 | _ -> c >= 0
      in
      let winner = List.fold_left (fun best it -> if better best it then best else it) first rest in
      (* fn:min/max Cont_access.atomize: strip node-ness but keep compressed values
         compressed (they decompress only on output) *)
      let atomized =
        match winner with
        | Att (_, v) -> v
        | Node id -> Str (node_string_value ctx id)
        | it -> it
      in
      mat [ atomized ])

and eval_distinct ctx env e : binding =
  let items = List.map (function Att (_, v) -> v | it -> it) (materialize ctx (eval ctx env e)) in
  (* Stay compressed when every item shares one eq-capable source model. *)
  let conts = List.filter_map (function Cval { cont; _ } -> Some cont | _ -> None) items in
  let on_codes =
    List.compare_lengths conts items = 0 && Cont_access.codes_replace_values `Eq conts
  in
  let seen = Hashtbl.create 64 in
  let first k = (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true) in
  mat
    (List.filter_map
       (fun it ->
         match it with
         | Cval { code; _ } when on_codes -> if first code then Some it else None
         | _ ->
           let k = atom_string ctx it in
           if first k then Some (Str k) else None)
       items)

(* --- Element construction --- *)

and construct ctx env tag attrs kids : elem =
  let static_attrs = List.map (construct_attr ctx env) attrs in
  let items =
    (* one kid's items as they are: [concat_map] would copy them (Q10
       allocates 5% fewer minor words) *)
    match kids with
    | [ k ] -> content_items ctx env k
    | _ -> List.concat_map (content_items ctx env) kids
  in
  (* attribute items in content become attributes of the new element *)
  { e_tag = tag; e_attrs = static_attrs @ dyn_attrs items; e_kids = content items }

and construct_attr ctx env (n, v) =
  match v with
  | Ast.Attr_string s -> (n, [ Str s ])
  | Ast.Attr_expr e -> (n, materialize ctx (eval ctx env e))

and content_items ctx env = function
  | Ast.Element (t, a, ks) -> [ Elem (construct ctx env t a ks) ]
  | k -> materialize ctx (eval ctx env k)

(* --- FLWOR with join detection and decorrelation --- *)

and eval_flwor ctx (base : env) (clauses : Ast.clause list) (ret : Ast.expr) : binding =
  prof_binding ctx ~kind:"flwor" (fun () -> "flwor") @@ fun () ->
  let tuples = flwor_tuples ctx base clauses in
  let qctx = quiet ctx in
  mat
    (prof_rows ctx ~kind:"return" (fun () -> "return") ~rows:List.length (fun () ->
         List.concat_map (fun d -> materialize qctx (eval qctx (d @ base) ret)) tuples))

(* The FLWOR clause pipeline: binds FOR/LET variables clause by clause,
   plans joins (block merge join, hash join, sorted probe) and
   decorrelates nested FLWORs, applies each WHERE conjunct as soon as
   its variables are bound, sorts on ORDER BY, and returns the binding
   tuples as deltas over [base]. *)
and flwor_tuples ctx (base : env) (clauses : Ast.clause list) : env list =
  let qctx = quiet ctx in
  let base_vars = Sset.of_list (List.map fst base) in
  let all_conjuncts =
    List.concat_map (function Ast.Where e -> Analysis.conjuncts e | _ -> []) clauses
  in
  let pending = ref all_conjuncts in
  let bound = ref Sset.empty in
  (* tuples are deltas over [base] *)
  let tuples : env list ref = ref [ [] ] in
  (* static provenance env: every clause variable bound so far, carrying
     its summary nodes (and an empty sequence) — what join typing needs
     to resolve paths rooted at {e earlier} FOR/LET variables, which the
     per-tuple deltas can't provide statically *)
  let prov : env ref = ref base in
  let full delta = delta @ base in
  let apply_ready () =
    let (ready, rest) =
      List.partition
        (fun c -> Sset.subset (Analysis.free_vars c) (Sset.union !bound base_vars))
        !pending
    in
    pending := rest;
    List.iter
      (fun c ->
        prof_rows ctx ~kind:"where"
          (fun () -> "where [" ^ short_expr c ^ "]")
          ~rows:(fun () -> List.length !tuples)
          (fun () ->
            tuples := List.filter (fun d -> ebv qctx (eval qctx (full d) c)) !tuples))
      ready
  in
  (* after a FOR or LET binds [v] to [e]: record [v]'s provenance and
     apply the conjuncts it completes *)
  let bind_clause v e =
    let snodes = Summary_access.env_static_snodes ctx !prov e in
    prov := (v, { seq = Mat []; snodes; origin = Loose }) :: !prov;
    bound := Sset.add v !bound;
    apply_ready ()
  in
  let process_clause (clause : Ast.clause) =
    match clause with
    | Ast.For (v, e) ->
      let correlated = Analysis.mentions !bound e in
      prof_rows ctx ~kind:"for"
        (fun () -> "for $" ^ v ^ if correlated then " (correlated)" else "")
        ~rows:(fun () -> List.length !tuples)
        (fun () ->
          if not correlated then begin
            let source = eval ctx base e in
            match Value_join.find_join ~var:v ~bound:!bound ~base_vars pending with
            | Some ((jop, left_e, right_e) as join) -> (
              (* the new variable's summary provenance comes from its
                 source binding, the earlier clause variables' from the
                 FLWOR's provenance env *)
              let typing_env =
                (v, { seq = Mat []; snodes = source.snodes; origin = Loose }) :: !prov
              in
              (* Key mode: compressed codes for an equality whose sides
                 statically resolve to containers sharing one source
                 model; atoms otherwise. *)
              let mode = Value_join.join_key_mode ctx typing_env jop left_e right_e in
              let bplan =
                if jop = Ast.Eq then
                  Value_join.block_join_plan ctx ~base ~typing_env ~var:v ~source
                    ~tuples:!tuples left_e right_e
                else None
              in
              match bplan with
              | Some plan ->
                tuples :=
                  prof_rows ctx ~kind:"block_merge_join"
                    (fun () -> "block merge join $" ^ v)
                    ~attrs:(fun _ -> Value_join.block_join_attrs plan)
                    ~rows:List.length
                    (fun () -> Value_join.exec_block_join qctx ~mode ~var:v plan)
              | None ->
                let jkind, jname =
                  if jop = Ast.Eq then ("hash_join", "hash join $") else ("sorted_probe", "sorted probe $")
                in
                tuples :=
                  prof_rows ctx ~kind:jkind (fun () -> jname ^ v)
                    ~attrs:(fun _ -> [ Value_join.keys_attr mode ])
                    ~rows:List.length
                    (fun () -> exec_join qctx base !tuples ~mode ~var:v ~source join))
            | None ->
              (* a source rooted at an outer variable (a nested FLWOR)
                 keeps its place in that variable's sets *)
              let members =
                match source.origin with
                | Run _ -> item_bindings ctx source
                | Member _ -> [ source ]
                | Loose ->
                  let items = materialize ctx source in
                  let bs = binding_set items source.snodes in
                  List.mapi (fun k _ -> member bs k) items
              in
              tuples := List.concat_map (fun d -> List.map (fun b -> (v, b) :: d) members) !tuples
          end
          else
            tuples :=
              List.concat_map
                (fun d ->
                  List.map (fun b -> (v, b) :: d) (item_bindings qctx (eval qctx (full d) e)))
                !tuples);
      bind_clause v e
    | Ast.Let (v, e) ->
      let correlated = Analysis.mentions !bound e in
      prof_rows ctx ~kind:"let"
        (fun () -> "let $" ^ v ^ if correlated then " (correlated)" else "")
        ~rows:(fun () -> List.length !tuples)
        (fun () ->
          if not correlated then begin
            let b = eval ctx base e in
            tuples := List.map (fun d -> (v, b) :: d) !tuples
          end
          else begin
            match decorrelate ctx base ~prov:!prov ~tuple_vars:!bound e with
            | Some (op, mode, run) ->
              prof_rows ctx ~kind:"decorrelate" (fun () -> "decorrelate $" ^ v)
                ~attrs:(fun () -> [ ("op", Ast.cmp_name op); Value_join.keys_attr mode ])
                ~rows:(fun () -> List.length !tuples)
                (fun () ->
                  tuples := List.map2 (fun d a -> (v, mat a) :: d) !tuples (run !tuples))
            | None ->
              tuples := List.map (fun d -> (v, eval qctx (full d) e) :: d) !tuples
          end);
      bind_clause v e
    | Ast.Where _ -> apply_ready ()
    | Ast.Order_by keys ->
      prof_rows ctx ~kind:"order_by" (fun () -> "order by")
        ~rows:(fun () -> List.length !tuples)
        (fun () ->
          (* each tuple's keys: the first item of each key's value, atomized
             once, so a key decompresses at most once for the whole sort *)
          let decorated =
            List.map
              (fun d ->
                ( List.map
                    (fun (k, _) ->
                      match materialize qctx (eval qctx (full d) k) with
                      | [] -> None
                      | x :: _ -> Some (Cont_access.atomize qctx x))
                    keys,
                  d ))
              !tuples
          in
          let cmp (ka, _) (kb, _) =
            let rec go ka kb keys =
              match ka, kb, keys with
              | a :: ka, b :: kb, (_, dir) :: keys ->
                (* an empty key sorts first *)
                let c = Option.compare Cont_access.compare_atoms a b in
                let c = match dir with `Asc -> c | `Desc -> -c in
                if c <> 0 then c else go ka kb keys
              | _ -> 0
            in
            go ka kb keys
          in
          tuples := List.map snd (List.stable_sort cmp decorated))
  in
  List.iter process_clause clauses;
  apply_ready ();
  if !pending <> [] then
    err "where clause references unbound variables: %s"
      (String.concat ", "
         (List.concat_map (fun c -> Sset.elements (Analysis.free_vars c)) !pending));
  !tuples

(* The join keys of [e]'s items under [mode]. *)
and join_keys ctx mode env e =
  List.concat_map (Value_join.join_key ctx mode) (materialize ctx (eval ctx env e))

and exec_join ctx base tuples ~mode ~var ~source (op, left_e, right_e) =
  let items = materialize ctx source in
  let keys_of = join_keys ctx mode in
  let bs = binding_set items source.snodes in
  let probe =
    Value_join.join_index op
      (List.mapi (fun i _ -> (keys_of ((var, member bs i) :: base) right_e, i)) items)
  in
  let out =
    List.concat_map
      (fun d -> List.map (fun i -> (var, member bs i) :: d) (probe (keys_of (d @ base) left_e)))
      tuples
  in
  Value_join.note_join mode ~candidates:(List.length items) ~matches:(List.length out);
  out

(* Decorrelate a nested FLWOR bound in a LET: the Q8/Q9 pattern
     let $a := for $t in ... where <inner> = <outer> return ...
   Returns the correlating comparison, how its keys are typed, and a
   run step that evaluates the inner FLWOR once, through the same
   clause pipeline (and so the same join planning and ORDER BY) as any
   other FLWOR, indexes its tuples on the correlated key, and probes the
   index with each outer tuple, evaluating the inner return per matching
   tuple: one answer per outer tuple, in order. *)
and decorrelate ctx base ~prov ~tuple_vars (e : Ast.expr) :
    (Ast.cmp_op * Value_join.key_mode * (env list -> item list list)) option =
  match e with
  | Ast.Flwor (clauses, ret) -> (
    let base_vars = Sset.of_list (List.map fst base) in
    let inner_bound =
      Sset.of_list
        (List.filter_map (function Ast.For (v, _) | Ast.Let (v, _) -> Some v | _ -> None) clauses)
    in
    (* every clause except where-conjuncts must avoid outer tuple vars *)
    let clean_clauses_ok =
      List.for_all
        (fun c ->
          match c with
          | Ast.For (_, e) | Ast.Let (_, e) -> not (Analysis.mentions tuple_vars e)
          | Ast.Where _ -> true
          | Ast.Order_by keys -> not (List.exists (fun (k, _) -> Analysis.mentions tuple_vars k) keys))
        clauses
      && not (Analysis.mentions tuple_vars ret)
    in
    if not clean_clauses_ok then None
    else begin
      let conjs = List.concat_map (function Ast.Where e -> Analysis.conjuncts e | _ -> []) clauses in
      let correlated, clean = List.partition (Analysis.mentions tuple_vars) conjs in
      match correlated with
      | [ c ] -> (
        match
          Analysis.join_conjunct ~left_vars:tuple_vars ~right_vars:inner_bound
            ~outer:base_vars c
        with
        | Some (op, outer_e, inner_e) when op <> Ast.Neq ->
          (* the inner clauses without the correlated conjunct *)
          let structural = List.filter (function Ast.Where _ -> false | _ -> true) clauses in
          let rebuilt = structural @ List.map (fun w -> Ast.Where w) clean in
          (* static env binding the summary provenance of the outer
             FLWOR's variables [prov] and of the inner variables, so both
             join keys can be typed to compressed codes *)
          let typing_env =
            List.fold_left
              (fun env c ->
                match c with
                | Ast.For (v, e) | Ast.Let (v, e) ->
                  let snodes = Summary_access.env_static_snodes ctx env e in
                  (v, { seq = Mat []; snodes; origin = Loose }) :: env
                | Ast.Where _ | Ast.Order_by _ -> env)
              prov structural
          in
          let mode = Value_join.join_key_mode ctx typing_env op outer_e inner_e in
          Some
            ( op,
              mode,
              fun outer_tuples ->
              let inner_tuples = flwor_tuples ctx base rebuilt in
              let qctx = quiet ctx in
              let keys_of = join_keys qctx mode in
              let probe =
                Value_join.join_index op
                  (List.map (fun d -> (keys_of (d @ base) inner_e, d)) inner_tuples)
              in
              let matches = ref 0 in
              let answers =
                List.map
                  (fun outer_delta ->
                    let hits = probe (keys_of (outer_delta @ base) outer_e) in
                    matches := !matches + List.length hits;
                    List.concat_map
                      (fun d -> materialize qctx (eval qctx (d @ outer_delta @ base) ret))
                      hits)
                  outer_tuples
              in
              Value_join.note_join mode ~candidates:(List.length inner_tuples)
                ~matches:!matches;
              answers )
        | _ -> None)
      | _ -> None
    end)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run (repo : Repository.t) (query : Ast.expr) : item list =
  Xquec_obs.Trace.with_span ~name:"executor.run" @@ fun () ->
  let ctx = mk_ctx repo in
  materialize ctx (eval ctx [] query)

(** Evaluate with an attached EXPLAIN profile: returns the results and
    the root of the annotated operator tree (wall time, cardinalities,
    compressed vs. decompress-then-compare predicate counts). Works
    whether or not global telemetry is enabled. The cache figures are
    read from the calling domain's open ledger. *)
let run_profiled (repo : Repository.t) (query : Ast.expr) :
    item list * Xquec_obs.Explain.node =
  let prof = Xquec_obs.Explain.create (short_expr ~limit:72 query) in
  let ctx = { (mk_ctx repo) with prof = Some prof } in
  let t0 = Xquec_obs.Trace.now_us () in
  let items =
    with_cache_delta prof.Xquec_obs.Explain.root (fun () ->
        Xquec_obs.Trace.with_span ~name:"executor.run" (fun () ->
            materialize ctx (eval ctx [] query)))
  in
  let wall_us = Xquec_obs.Trace.now_us () -. t0 in
  (items, Xquec_obs.Explain.finish prof ~wall_us ~rows:(List.length items))

(** Serialize results, decompressing — the Decompress + XMLSerialize tail
    every plan ends with (§4): one writer, so each value is decompressed
    once, into the answer. *)
let serialize (repo : Repository.t) (items : item list) : string =
  let buf = Buffer.create 256 in
  let w = writer (mk_ctx repo) buf in
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf '\n';
      add_item w it)
    items;
  Buffer.contents buf
