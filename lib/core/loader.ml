(* Loader / compressor (§1.1 module 1): parses an XML document in one SAX
   pass and shreds it into the compressed repository structures — name
   dictionary, structure tree, per-path value containers and the structure
   summary. Projection is "prepared in advance" (§2.3): every value lands
   in the container of its root-to-leaf path.

   Containers are typed <type, pe>: values that all parse as canonical
   numbers get the order-preserving numeric codec; other containers
   default to ALM, the paper's no-workload choice for strings (§2.1). The
   workload-driven partitioner may later re-assign algorithms and merge
   source models. It re-encodes every container the workload's
   predicates compare, so those ALM containers get the dictionary-free
   ALM model instead of a trained one: ALM preserves order under any
   model, so their records sort exactly as under the model the
   partitioner replaces. *)

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

type frame = {
  f_id : int;
  f_snode : Summary.node;
  mutable f_rev_children : int list; (* >= 0 node id; < 0 text marker -(slot+1) *)
  mutable f_nvalues : int;           (* slots handed out so far *)
}

let load ?(options = default_options) ?(workload = []) ~name (xml : string) : Repository.t =
  Xquec_obs.Trace.with_span ~name:"loader.load"
    ~attrs:[ ("document", name); ("bytes", string_of_int (String.length xml)) ]
  @@ fun () ->
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
  (* For back-filling sorted record indexes we remember, per owner node,
     the (container, seq) in arrival order; seq is resolved to the sorted
     index after containers are built. *)
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
  Xquec_obs.Trace.with_span ~name:"loader.parse" (fun () ->
      Xquec_obs.Metrics.time_ms "loader.parse_ms" (fun () ->
          Xmlkit.Sax.parse_string ~f:handle xml));
  Summary.seal_t summary;
  let reencoded = Workload.queried_before_build ~dict ~summary workload in
  (* The 256 single-byte intervals and no mined token; one per load, so
     concurrent loads share nothing. *)
  let dictionary_free = lazy (Compress.Codec.M_alm (Compress.Alm.of_tokens [])) in
  (* Build containers: choose the codec, then build each from its values,
     remembering the arrival-order -> sorted-index mapping for pointer
     back-fill. *)
  let pending_list = List.rev !pending_order in
  let seq_maps : (int, int array) Hashtbl.t = Hashtbl.create 64 in
  let choose_algorithm values =
    if options.detect_numeric then begin
      match Compress.Ipack.train values with
      | _ -> Compress.Codec.Numeric_alg
      | exception Compress.Ipack.Unsupported _ -> options.default_string_algorithm
    end
    else options.default_string_algorithm
  in
  let containers =
    Xquec_obs.Trace.with_span ~name:"loader.build_containers"
      ~attrs:[ ("containers", string_of_int (List.length pending_list)) ]
    @@ fun () ->
    Xquec_obs.Metrics.time_ms "loader.build_containers_ms" @@ fun () ->
    List.map
      (fun p ->
        let records = List.rev p.p_rev_records in
        let values = List.map fst records in
        let algorithm = choose_algorithm values in
        let model =
          if algorithm = Compress.Codec.Alm_alg && List.mem p.p_id reencoded then
            Lazy.force dictionary_free
          else Compress.Codec.train algorithm values
        in
        let cont, seq_to_idx =
          Container.of_values ~id:p.p_id ~path:p.p_path ~kind:p.p_kind ~algorithm ~model
            ~model_id:p.p_id records
        in
        Hashtbl.add seq_maps p.p_id seq_to_idx;
        if Xquec_obs.is_enabled () then
          Xquec_obs.Metrics.incr ~by:(Container.length cont) "loader.values";
        cont)
      pending_list
    |> Array.of_list
  in
  (* Assemble per-node child lists and resolved value pointers. *)
  let n = Structure_tree.next_id builder in
  let rev_children = Array.make n [] in
  let rev_values = Array.make n [] in
  Hashtbl.iter (fun id kids -> if id < n then rev_children.(id) <- kids) rev_children_tbl;
  Hashtbl.iter
    (fun id ptrs ->
      if id < n then
        rev_values.(id) <-
          List.map
            (fun (cont, seq) -> (cont, (Hashtbl.find seq_maps cont).(seq)))
            ptrs)
    pending_ptrs;
  let tree = Structure_tree.finish builder ~rev_children ~rev_values in
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.set_gauge "loader.containers" (float_of_int (Array.length containers));
    Xquec_obs.Metrics.set_gauge "loader.tree_nodes"
      (float_of_int (Structure_tree.node_count tree))
  end;
  {
    Repository.dict;
    tree;
    containers;
    summary;
    source_name = name;
    original_size = String.length xml;
  }
