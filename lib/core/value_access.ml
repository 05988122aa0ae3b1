(* Value access (§4's TextContent, Decompress and XMLSerialize): the
   values attached to tree nodes, read one at a time or a block at a
   time, a binding's items, and the decompression of values and
   subtrees for output. *)

open Storage
open Exec_base

(* The container and code of value [slot] of node [id]. *)
let pointer ctx id slot =
  let tree = ctx.repo.Repository.tree in
  let cont = container ctx (Structure_tree.value_container tree id) in
  (cont, (Container.get cont (Structure_tree.value_index tree id slot)).Container.code)

(* Value [slot] of node [id], still compressed. *)
let pointer_value ctx id slot : item =
  let cont, code = pointer ctx id slot in
  Cval { cont; code }

let decompress_cval (cont : Container.t) code = Compress.Codec.decompress cont.Container.model code

(* Value [slot] of node [id], decompressed. *)
let pointer_string ctx id slot : string =
  let cont, code = pointer ctx id slot in
  decompress_cval cont code

let node_text_values ctx id : item list =
  List.init (Structure_tree.value_count ctx.repo.Repository.tree id) (pointer_value ctx id)

let block_reader ctx =
  let conts = ctx.repo.Repository.containers in
  let cache : Buffer_pool.decoded option array option array =
    Array.make (Array.length conts) None
  in
  let fetches = ref 0 in
  let read cid idx =
    let cont = conts.(cid) in
    let blocks =
      match cache.(cid) with
      | Some a -> a
      | None ->
        let a = Array.make (Container.block_count cont) None in
        cache.(cid) <- Some a;
        a
    in
    let bi = Container.block_of_index cont idx in
    let d =
      match blocks.(bi) with
      | Some d -> d
      | None ->
        let d = (Container.fetch_blocks cont ~b0:bi ~b1:bi).(0) in
        incr fetches;
        blocks.(bi) <- Some d;
        d
    in
    Cval { cont; code = d.Buffer_pool.codes.(idx - cont.Container.blocks.(bi).Container.b_start) }
  in
  (read, fetches)

let attr_node_value ctx id : item option =
  if Structure_tree.value_count ctx.repo.Repository.tree id = 0 then None
  else Some (pointer_value ctx id 0)

let node_string_value ctx id : string =
  let tree = ctx.repo.Repository.tree in
  let id = if id < 0 then 0 else id (* the document node's string value *) in
  let buf = Buffer.create 64 in
  let rec go id =
    Structure_tree.fold_entries tree id
      (fun () entry ->
        if entry < 0 then Buffer.add_string buf (pointer_string ctx id (-entry - 1))
        else if not (is_attr_code ctx (Structure_tree.tag tree entry)) then go entry)
      ()
  in
  go id;
  Buffer.contents buf

let rec reconstruct ctx id : Xmlkit.Tree.t =
  if id < 0 then Xmlkit.Tree.Element ("#document", [], [ reconstruct ctx 0 ])
  else begin
    let tree = ctx.repo.Repository.tree in
    let attrs = ref [] and kids = ref [] in
    Structure_tree.fold_entries tree id
      (fun () entry ->
        if entry < 0 then kids := Xmlkit.Tree.Text (pointer_string ctx id (-entry - 1)) :: !kids
        else begin
          let code = Structure_tree.tag tree entry in
          if is_attr_code ctx code then begin
            let v =
              if Structure_tree.value_count tree entry = 0 then "" else pointer_string ctx entry 0
            in
            attrs := (local_name ctx code, v) :: !attrs
          end
          else kids := reconstruct ctx entry :: !kids
        end)
      ();
    Xmlkit.Tree.Element (tag_name ctx (Structure_tree.tag tree id), List.rev !attrs, List.rev !kids)
  end

(* ------------------------------------------------------------------ *)
(* Materialization and atomization                                     *)
(* ------------------------------------------------------------------ *)

(* The document node is virtual: the summary root (tag -1) has no stored
   instances, so it materializes as the pseudo-id -1, which the
   navigation code below understands. *)
let doc_node_id = -1

let merged_node_items (snodes : Summary.node list) : item list =
  let (roots, others) = List.partition (fun (sn : Summary.node) -> sn.Summary.tag < 0) snodes in
  let root_items = if roots = [] then [] else [ Node doc_node_id ] in
  root_items
  @ (Summary.merged_ids others |> Array.to_list |> List.map (fun id -> Node id))

let materialize ctx (b : binding) : item list =
  match b.seq with
  | Mat items -> items
  | All_nodes snodes -> merged_node_items snodes
  | All_values snodes ->
    (* Document order across ALL contributing summary nodes: collect the
       owning node ids, merge-sort them globally, then read each owner's
       values in slot order. Values of attribute snodes (path ends in
       @name) are wrapped as attribute nodes. *)
    let owners =
      List.concat_map
        (fun (sn : Summary.node) ->
          let attr_name =
            if is_attr_code ctx sn.Summary.tag then Some (local_name ctx sn.Summary.tag) else None
          in
          Array.to_list sn.Summary.ids |> List.map (fun id -> (id, attr_name)))
        snodes
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let read, _ = block_reader ctx in
    let tree = ctx.repo.Repository.tree in
    List.concat_map
      (fun (id, attr_name) ->
        let cid = Structure_tree.value_container tree id in
        let vals =
          List.init (Structure_tree.value_count tree id) (fun slot ->
              read cid (Structure_tree.value_index tree id slot))
        in
        match attr_name with
        | Some name -> List.map (fun v -> Att (name, v)) vals
        | None -> vals)
      owners

let count ctx (b : binding) : int =
  match b.seq with
  | Mat items -> List.length items
  | All_nodes snodes ->
    List.fold_left
      (fun acc (sn : Summary.node) ->
        acc + if sn.Summary.tag < 0 then 1 else Array.length sn.Summary.ids)
      0 snodes
  | All_values snodes ->
    (* counted from the structure tree, without reading a value *)
    let tree = ctx.repo.Repository.tree in
    let add acc id = acc + Structure_tree.value_count tree id in
    List.fold_left (fun acc (sn : Summary.node) -> Array.fold_left add acc sn.Summary.ids) 0 snodes

let item_bindings ctx (b : binding) : binding list =
  match b.origin, b.seq with
  | Run (u, s), Mat items -> List.mapi (fun j _ -> member u (s + j)) items
  | _ -> List.map (fun it -> mat [ it ]) (materialize ctx b)

let rec atom_string ctx = function
  | Node id -> node_string_value ctx id
  | Cval { cont; code } -> decompress_cval cont code
  | Att (_, v) -> atom_string ctx v
  | Str s -> s
  | Num f -> if Float.is_integer f then string_of_int (int_of_float f) else Printf.sprintf "%g" f
  | Bool b -> if b then "true" else "false"
  | Elem t -> Xmlkit.Tree.text_content t

let atom_number ctx it =
  match it with
  | Num f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Node _ | Cval _ | Att _ | Str _ | Elem _ ->
    float_of_string_opt (String.trim (atom_string ctx it))
