(* Loader / compressor (§1.1 module 1), in two steps. [parse] runs one
   SAX pass and shreds the document into the name dictionary, the
   structure summary, the tree's shape and each container's plain
   [(value, parent)] records. Projection is "prepared in advance"
   (§2.3): every value lands in the container of its root-to-leaf path.
   [build] then encodes every container once, under the configuration
   the §3.3 search chose when there is a workload.

   Containers are typed <type, pe>: values that all parse as canonical
   numbers get the order-preserving numeric codec; other containers
   default to ALM, the paper's no-workload choice for strings (§2.1). A
   container in a configuration set gets the set's algorithm and a
   model trained on the union of the set's values, each container's in
   record order ([value_order]). *)

open Storage

type options = {
  default_string_algorithm : Compress.Codec.algorithm;
  detect_numeric : bool;
}

let default_options = { default_string_algorithm = Compress.Codec.Alm_alg; detect_numeric = true }

(* Per-container accumulator while parsing. *)
type pending = {
  p_path : string;
  p_kind : Container.kind;
  p_id : int;
  mutable p_rev_records : (string * int) list;  (* value, record parent id — reversed *)
  mutable p_count : int;
}

(* A container's records as the parse collected them. *)
type shred = {
  s_path : string;
  s_kind : Container.kind;
  s_records : (string * int) array;  (* (value, record parent), arrival order *)
  s_order : int array Lazy.t;  (* arrival positions in record order *)
}

type parsed = {
  options : options;
  name : string;
  size : int;
  dict : Name_dict.t;
  summary : Summary.t;
  builder : Structure_tree.builder;
  shreds : shred array;  (* by container id *)
  rev_children : int list array;
  rev_pointers : (int * int) list array;  (* per node: (container, arrival position) *)
}

type frame = {
  f_id : int;
  f_snode : Summary.node;
  mutable f_rev_children : int list; (* >= 0 node id; < 0 text marker -(slot+1) *)
  mutable f_nvalues : int;           (* slots handed out so far *)
}

let numeric_model options values =
  if not options.detect_numeric then None
  else
    match Compress.Ipack.train values with
    | m -> Some m
    | exception Compress.Ipack.Unsupported _ -> None

(* The arrival positions of a container's records in the order a
   container encoded under the loader's choice with an order-preserving
   model holds them: by code, then parent, then arrival. Numeric values
   are ordered by their packed code; strings by their bytes, which is
   the order of their codes under any ALM model. *)
let value_order options (records : (string * int) array) : int array =
  let key =
    match numeric_model options (Array.to_list (Array.map fst records)) with
    | Some m -> Compress.Ipack.compress m
    | None -> Fun.id
  in
  let keys = Array.map (fun (v, _) -> key v) records in
  let order = Array.init (Array.length records) Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = String.compare keys.(i) keys.(j) in
      if c <> 0 then c else Int.compare (snd records.(i)) (snd records.(j)))
    order;
  order

let parse ?(options = default_options) ~name (xml : string) : parsed =
  Xquec_obs.Trace.with_span ~name:"loader.parse"
    ~attrs:[ ("document", name); ("bytes", string_of_int (String.length xml)) ]
  @@ fun () ->
  Xquec_obs.Metrics.time_ms "loader.parse_ms" @@ fun () ->
  Xquec_obs.Metrics.incr "loader.documents";
  let dict = Name_dict.create () in
  let summary = Summary.create () in
  let builder = Structure_tree.builder () in
  let pendings : (string, pending) Hashtbl.t = Hashtbl.create 64 in
  let pending_order = ref [] in
  let next_container = ref 0 in
  let container_for ~path ~kind ~snode_for_text =
    match Hashtbl.find_opt pendings path with
    | Some p -> p
    | None ->
      let p =
        { p_path = path; p_kind = kind; p_id = !next_container; p_rev_records = [];
          p_count = 0 }
      in
      incr next_container;
      Hashtbl.add pendings path p;
      pending_order := p :: !pending_order;
      (match snode_for_text with
      | Some (sn : Summary.node) -> sn.Summary.text_container <- Some p.p_id
      | None -> ());
      p
  in
  let stack : frame list ref = ref [] in
  (* Child lists and value-pointer lists per node, collected as we go. *)
  let rev_children_tbl : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let record_value ~(pending : pending) ~value ~record_parent ~owner =
    let slot = owner.f_nvalues in
    owner.f_nvalues <- slot + 1;
    pending.p_rev_records <- (value, record_parent) :: pending.p_rev_records;
    let seq = pending.p_count in
    pending.p_count <- seq + 1;
    (slot, seq)
  in
  (* For back-filling record indexes we remember, per owner node, the
     (container, seq) in arrival order; [build] resolves seq to the
     record index once the container is encoded. *)
  let pending_ptrs : (int, (int * int) list) Hashtbl.t = Hashtbl.create 1024 in
  let add_ptr owner_id cont seq =
    let prev = Option.value ~default:[] (Hashtbl.find_opt pending_ptrs owner_id) in
    Hashtbl.replace pending_ptrs owner_id ((cont, seq) :: prev)
  in
  let handle ev =
    match ev with
    | Xmlkit.Sax.Start_element (tag, attributes) ->
      let tag_code = Name_dict.intern dict tag in
      let (parent_snode, parent_frame) =
        match !stack with
        | [] -> (summary.Summary.root, None)
        | fr :: _ -> (fr.f_snode, Some fr)
      in
      let snode = Summary.child_or_create parent_snode ~tag:tag_code ~name:tag in
      let id = Structure_tree.open_node builder ~tag:tag_code in
      Summary.add_id snode id;
      (match parent_frame with
      | Some fr -> fr.f_rev_children <- id :: fr.f_rev_children
      | None -> ());
      let frame =
        { f_id = id; f_snode = snode; f_rev_children = []; f_nvalues = 0 }
      in
      (* Attributes: an attribute is a node (tagged "@name") whose single
         value goes to the container of path pe/@name. *)
      List.iter
        (fun (aname, avalue) ->
          let atag = "@" ^ aname in
          let atag_code = Name_dict.intern dict atag in
          let asnode = Summary.child_or_create snode ~tag:atag_code ~name:atag in
          let attr_id = Structure_tree.open_node builder ~tag:atag_code in
          Summary.add_id asnode attr_id;
          frame.f_rev_children <- attr_id :: frame.f_rev_children;
          let pending =
            container_for ~path:asnode.Summary.path ~kind:Container.Attribute
              ~snode_for_text:None
          in
          (match asnode.Summary.text_container with
          | None -> asnode.Summary.text_container <- Some pending.p_id
          | Some _ -> ());
          (* The attribute node owns the value; the record's parent pointer
             is the attribute node itself (its parent is the element). *)
          let attr_frame =
            { f_id = attr_id; f_snode = asnode; f_rev_children = []; f_nvalues = 0 }
          in
          let (_slot, seq) =
            record_value ~pending ~value:avalue ~record_parent:attr_id ~owner:attr_frame
          in
          add_ptr attr_id pending.p_id seq;
          Hashtbl.replace rev_children_tbl attr_id [])
        attributes;
      stack := frame :: !stack
    | Xmlkit.Sax.End_element _ -> (
      match !stack with
      | fr :: rest ->
        Hashtbl.replace rev_children_tbl fr.f_id fr.f_rev_children;
        stack := rest
      | [] -> assert false)
    | Xmlkit.Sax.Characters text -> (
      match !stack with
      | fr :: _ ->
        let pending =
          container_for
            ~path:(fr.f_snode.Summary.path ^ "/#text")
            ~kind:Container.Text ~snode_for_text:(Some fr.f_snode)
        in
        let (slot, seq) =
          record_value ~pending ~value:text ~record_parent:fr.f_id ~owner:fr
        in
        fr.f_rev_children <- -(slot + 1) :: fr.f_rev_children;
        add_ptr fr.f_id pending.p_id seq
      | [] -> assert false)
  in
  Xmlkit.Sax.parse_string ~f:handle xml;
  Summary.seal_t summary;
  let shreds =
    List.rev_map
      (fun p ->
        let records = Array.of_list (List.rev p.p_rev_records) in
        { s_path = p.p_path; s_kind = p.p_kind; s_records = records;
          s_order = lazy (value_order options records) })
      !pending_order
    |> Array.of_list
  in
  let n = Structure_tree.next_id builder in
  let rev_children = Array.make n [] in
  let rev_pointers = Array.make n [] in
  Hashtbl.iter (fun id kids -> if id < n then rev_children.(id) <- kids) rev_children_tbl;
  Hashtbl.iter (fun id ptrs -> if id < n then rev_pointers.(id) <- ptrs) pending_ptrs;
  { options; name; size = String.length xml; dict; summary; builder; shreds; rev_children;
    rev_pointers }

let dict p = p.dict
let summary p = p.summary

let values p id =
  let s = p.shreds.(id) in
  Array.map (fun i -> fst s.s_records.(i)) (Lazy.force s.s_order)

(* Per container in a set of [configuration]: the set's algorithm, its
   model trained on the union of the set's values, and its model id. *)
let set_models configuration (p : parsed) =
  let in_set = Array.make (Array.length p.shreds) None in
  List.iter
    (fun (ids, alg) ->
      let model =
        try Compress.Codec.train alg (List.concat_map (fun id -> Array.to_list (values p id)) ids)
        with Compress.Codec.Unsupported msg ->
          invalid_arg
            (Printf.sprintf "Loader.build: %s cannot encode containers {%s}: %s"
               (Compress.Codec.algorithm_name alg)
               (String.concat ", " (List.map string_of_int ids))
               msg)
      in
      let model_id = List.fold_left min max_int ids in
      List.iter (fun id -> in_set.(id) <- Some (alg, model, model_id)) ids)
    configuration.Cost_model.sets;
  in_set

let build ?(configuration = { Cost_model.sets = [] }) (p : parsed) : Repository.t =
  (* Each container once, in arrival order, with its arrival position
     -> record index mapping for the pointer back-fill: [of_values]
     sorts by code, then parent, then arrival, so records of equal
     value and parent keep the order [values] gives them. *)
  let encode in_set id s =
    let algorithm, model, model_id =
      match in_set.(id) with
      | Some set -> set
      | None ->
        let values = List.map fst (Array.to_list s.s_records) in
        let algorithm =
          match numeric_model p.options values with
          | Some _ -> Compress.Codec.Numeric_alg
          | None -> p.options.default_string_algorithm
        in
        (algorithm, Compress.Codec.train algorithm values, id)
    in
    let built =
      Container.of_values ~id ~path:s.s_path ~kind:s.s_kind ~algorithm ~model ~model_id
        (Array.to_list s.s_records)
    in
    if Xquec_obs.is_enabled () then
      Xquec_obs.Metrics.incr ~by:(Container.length (fst built)) "loader.values";
    built
  in
  let built =
    Xquec_obs.Trace.with_span ~name:"loader.build_containers"
      ~attrs:[ ("containers", string_of_int (Array.length p.shreds)) ]
    @@ fun () ->
    Xquec_obs.Metrics.time_ms "loader.build_containers_ms" @@ fun () ->
    Array.mapi (encode (set_models configuration p)) p.shreds
  in
  let containers = Array.map fst built in
  let rev_values =
    Array.map (List.map (fun (cont, seq) -> (cont, (snd built.(cont)).(seq)))) p.rev_pointers
  in
  let tree = Structure_tree.finish p.builder ~rev_children:p.rev_children ~rev_values in
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.set_gauge "loader.containers" (float_of_int (Array.length containers));
    Xquec_obs.Metrics.set_gauge "loader.tree_nodes"
      (float_of_int (Structure_tree.node_count tree))
  end;
  {
    Repository.dict = p.dict;
    tree;
    containers;
    summary = p.summary;
    source_name = p.name;
    original_size = p.size;
    compactions = Repository.no_compactions ();
  }

let load ?options ~name xml = build (parse ?options ~name xml)
