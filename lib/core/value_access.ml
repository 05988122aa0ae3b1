(* Value access (§4's TextContent, Decompress and XMLSerialize): the
   values attached to tree nodes, read one at a time or a block at a
   time, a binding's items, and the one result writer, which walks
   stored subtrees and constructed elements and decompresses each value
   straight into the answer. *)

open Storage
open Exec_base

let decompress_cval (cont : Container.t) code = Compress.Codec.decompress cont.Container.model code

(* Container [cid] as this evaluation reads it, pinned when first read. *)
let pinned bk cid =
  match bk.pinned.(cid) with
  | Some p -> p
  | None ->
    let cont = bk.conts.(cid) in
    let p = { p_cont = cont; p_blocks = Array.make (Container.block_count cont) None } in
    bk.pinned.(cid) <- Some p;
    p

(* Drop every held block: done before a fetch would take the held bytes
   past a quarter of the pool's budget, so an evaluation's own hold on
   decoded blocks stays bounded however many it reads. *)
let let_go bk =
  Array.iter
    (Option.iter (fun p -> Array.fill p.p_blocks 0 (Array.length p.p_blocks) None))
    bk.pinned;
  bk.held <- 0

(* The code of record [idx] of a pinned container, from the held block
   or from one fetched through the pool and held. *)
let code_at bk p idx : string =
  let cont = p.p_cont in
  let bi = Container.block_of_index cont idx in
  let d =
    match p.p_blocks.(bi) with
    | Some d -> d
    | None ->
      let d = (Container.fetch_blocks cont ~b0:bi ~b1:bi).(0) in
      bk.fetches <- bk.fetches + 1;
      if bk.held + d.Buffer_pool.d_bytes > Buffer_pool.budget_bytes () / 4 then let_go bk;
      bk.held <- bk.held + d.Buffer_pool.d_bytes;
      p.p_blocks.(bi) <- Some d;
      d
  in
  d.Buffer_pool.codes.(idx - cont.Container.blocks.(bi).Container.b_start)

let read_value ctx cid idx : item =
  let p = pinned ctx.values cid in
  Cval { cont = p.p_cont; code = code_at ctx.values p idx }

(* Value [slot] of node [id], still compressed. *)
let pointer_value ctx id slot : item =
  let tree = ctx.repo.Repository.tree in
  read_value ctx (Structure_tree.value_container tree id) (Structure_tree.value_index tree id slot)

let node_text_values ctx id : item list =
  List.init (Structure_tree.value_count ctx.repo.Repository.tree id) (pointer_value ctx id)

let attr_node_value ctx id : item option =
  if Structure_tree.value_count ctx.repo.Repository.tree id = 0 then None
  else Some (pointer_value ctx id 0)

(* ------------------------------------------------------------------ *)
(* The result writer                                                   *)
(* ------------------------------------------------------------------ *)

(* A stored node's markup is its pre-order interval walked entry by
   entry: attributes into the start tag, then text values and child
   elements in document order. A value is decompressed straight onto the
   buffer and escaped there ([Xmlkit.Escape.escape_appended]). A
   constructed element writes its stored subtrees the same way and its
   values from the items it kept. The bytes are those
   [Xmlkit.Printer] prints for the equivalent tree. *)

type writer = { w_ctx : ctx; buf : Buffer.t }

let writer ctx buf = { w_ctx = ctx; buf }

let num_string f = if Float.is_integer f then string_of_int (int_of_float f) else Printf.sprintf "%g" f

(* Value [slot] of node [id], decompressed onto the buffer. *)
let add_value w id slot =
  let ctx = w.w_ctx in
  let tree = ctx.repo.Repository.tree in
  let p = pinned ctx.values (Structure_tree.value_container tree id) in
  let code = code_at ctx.values p (Structure_tree.value_index tree id slot) in
  Compress.Codec.decompress_into p.p_cont.Container.model code w.buf

(* Value [slot] of node [id], escaped in place. *)
let add_escaped_value w ~attr id slot =
  let start = Buffer.length w.buf in
  add_value w id slot;
  Xmlkit.Escape.escape_appended ~attr w.buf start

(* The string value of an element: its descendant text, attributes
   excluded. The document node's is its root's. *)
let rec add_node_text w id =
  let ctx = w.w_ctx in
  let tree = ctx.repo.Repository.tree in
  let id = if id < 0 then 0 else id in
  Structure_tree.fold_entries tree id
    (fun () entry ->
      if entry < 0 then add_value w id (-entry - 1)
      else if not (is_attr_code ctx (Structure_tree.tag tree entry)) then add_node_text w entry)
    ()

let indent_to buf depth =
  Buffer.add_char buf '\n';
  for _ = 1 to depth do
    Buffer.add_string buf "  "
  done

(* Bits of a start tag's fold: the element has content, and some of it
   is text. *)
let has_content = 1

let has_text = 2

let rec add_node_xml w ~indent depth id =
  let ctx = w.w_ctx and buf = w.buf in
  let tree = ctx.repo.Repository.tree in
  if indent && Buffer.length buf > 0 then indent_to buf depth;
  if id < 0 then begin
    Buffer.add_string buf "<#document>";
    add_node_xml w ~indent (depth + 1) 0;
    if indent then indent_to buf depth;
    Buffer.add_string buf "</#document>"
  end
  else begin
    let tag = tag_name ctx (Structure_tree.tag tree id) in
    Buffer.add_char buf '<';
    Buffer.add_string buf tag;
    let flags =
      Structure_tree.fold_entries tree id
        (fun flags entry ->
          if entry < 0 then flags lor has_content lor has_text
          else begin
            let code = Structure_tree.tag tree entry in
            if is_attr_code ctx code then begin
              Buffer.add_char buf ' ';
              Buffer.add_string buf (local_name ctx code);
              Buffer.add_string buf "=\"";
              if Structure_tree.value_count tree entry > 0 then
                add_escaped_value w ~attr:true entry 0;
              Buffer.add_char buf '"';
              flags
            end
            else flags lor has_content
          end)
        0
    in
    if flags = 0 then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      Structure_tree.fold_entries tree id
        (fun () entry ->
          if entry < 0 then add_escaped_value w ~attr:false id (-entry - 1)
          else if not (is_attr_code ctx (Structure_tree.tag tree entry)) then
            add_node_xml w ~indent (depth + 1) entry)
        ();
      if indent && flags land has_text = 0 then indent_to buf depth;
      Buffer.add_string buf "</";
      Buffer.add_string buf tag;
      Buffer.add_char buf '>'
    end
  end

(* An item's string value, unescaped. *)
let rec add_string w (it : item) =
  match it with
  | Node id -> add_node_text w id
  | Cval { cont; code } -> Compress.Codec.decompress_into cont.Container.model code w.buf
  | Att (_, v) -> add_string w v
  | Str s -> Buffer.add_string w.buf s
  | Num f -> Buffer.add_string w.buf (num_string f)
  | Bool b -> Buffer.add_string w.buf (if b then "true" else "false")
  | Elem e -> List.iter (add_kid_text w) e.e_kids

and add_kid_text w = function
  | Kid_node id -> add_node_text w id
  | Kid_elem e -> add_string w (Elem e)
  | Kid_text atoms -> add_joined w atoms

(* Items' string values, joined by single spaces. *)
and add_joined w = function
  | [] -> ()
  | it :: rest ->
    add_string w it;
    List.iter
      (fun it ->
        Buffer.add_char w.buf ' ';
        add_string w it)
      rest

(* [add_joined], escaped in place. *)
let add_escaped_joined w ~attr items =
  let start = Buffer.length w.buf in
  add_joined w items;
  Xmlkit.Escape.escape_appended ~attr w.buf start

let rec add_elem_xml w e =
  let buf = w.buf in
  Buffer.add_char buf '<';
  Buffer.add_string buf e.e_tag;
  List.iter
    (fun (n, items) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf n;
      Buffer.add_string buf "=\"";
      add_escaped_joined w ~attr:true items;
      Buffer.add_char buf '"')
    e.e_attrs;
  match e.e_kids with
  | [] -> Buffer.add_string buf "/>"
  | kids ->
    Buffer.add_char buf '>';
    List.iter
      (function
        | Kid_node id -> add_node_xml w ~indent:false 0 id
        | Kid_elem e -> add_elem_xml w e
        | Kid_text atoms -> add_escaped_joined w ~attr:false atoms)
      kids;
    Buffer.add_string buf "</";
    Buffer.add_string buf e.e_tag;
    Buffer.add_char buf '>'

let add_node ?(indent = false) w id = add_node_xml w ~indent 0 id

let add_item w (it : item) =
  match it with
  | Node id -> add_node w id
  | Elem e -> add_elem_xml w e
  | Att (n, v) ->
    Buffer.add_string w.buf n;
    Buffer.add_string w.buf "=\"";
    add_escaped_joined w ~attr:true [ v ];
    Buffer.add_char w.buf '"'
  | Cval _ | Str _ | Num _ | Bool _ -> add_string w it

(* A string value through a writer of its own. *)
let string_value ctx it =
  let buf = Buffer.create 64 in
  add_string (writer ctx buf) it;
  Buffer.contents buf

let node_string_value ctx id : string = string_value ctx (Node id)

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
    let tree = ctx.repo.Repository.tree in
    List.concat_map
      (fun (id, attr_name) ->
        let cid = Structure_tree.value_container tree id in
        let vals =
          List.init (Structure_tree.value_count tree id) (fun slot ->
              read_value ctx cid (Structure_tree.value_index tree id slot))
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
  | Cval { cont; code } -> decompress_cval cont code
  | Att (_, v) -> atom_string ctx v
  | Str s -> s
  | Num f -> num_string f
  | Bool b -> if b then "true" else "false"
  | (Node _ | Elem _) as it -> string_value ctx it

let joined_string ctx ~sep items =
  match items with
  | [ it ] ->
    (* one item's string: a value decompresses into a buffer sized from
       its code, not grown from 64 bytes (Q14 allocates 5% fewer minor
       words) *)
    atom_string ctx it
  | _ ->
    let buf = Buffer.create 64 in
    let w = writer ctx buf in
    List.iteri
      (fun i it ->
        if i > 0 then Buffer.add_string buf sep;
        add_string w it)
      items;
    Buffer.contents buf

let atom_number ctx it =
  match it with
  | Num f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Node _ | Cval _ | Att _ | Str _ | Elem _ ->
    float_of_string_opt (String.trim (atom_string ctx it))
