(* Compressed repository: binds the name dictionary, structure tree, value
   containers, shared source models and structure summary for one
   document, with honest byte-level serialization for the size
   experiments. *)

type compactions = {
  pass : Mutex.t;
  busy : bool Atomic.t;
  count : int Atomic.t;
  blocks_rewritten : int Atomic.t;
  bytes_rewritten : int Atomic.t;
  recent : Xquec_obs.Json.t list Atomic.t;
}

let no_compactions () =
  {
    pass = Mutex.create ();
    busy = Atomic.make false;
    count = Atomic.make 0;
    blocks_rewritten = Atomic.make 0;
    bytes_rewritten = Atomic.make 0;
    recent = Atomic.make [];
  }

type t = {
  dict : Name_dict.t;
  tree : Structure_tree.t;
  containers : Container.t array;
  summary : Summary.t;
  source_name : string;
  original_size : int;  (** serialized size of the uncompressed document *)
  compactions : compactions;
}

let container t id = t.containers.(id)

let find_container_by_path t path =
  Array.to_list t.containers |> List.find_opt (fun c -> String.equal c.Container.path path)

(* Containers are never changed in place: a rebuild takes over its
   slot. The slot store comes first and is a single boxed-pointer
   write, so a concurrent reader sees either container (both answer
   identically); only then are the old container's pool entries
   dropped. Its heat row goes with it: readers still holding it charge
   a row no reading of the repository lists. *)
let replace_container (t : t) (fresh : Container.t) : int =
  let old = t.containers.(fresh.Container.id) in
  t.containers.(fresh.Container.id) <- fresh;
  Buffer_pool.invalidate_container ~uid:old.Container.uid

let heat_rows t = Array.to_list (Array.map (fun c -> c.Container.heat) t.containers)

(** Distinct source models (containers in the same partition share one). *)
let models (t : t) : (int * Compress.Codec.model) list =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc (c : Container.t) ->
      if Hashtbl.mem seen c.Container.model_id then acc
      else begin
        Hashtbl.add seen c.Container.model_id ();
        (c.Container.model_id, c.Container.model) :: acc
      end)
    [] t.containers
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Size accounting (§2.2 / Fig. 6)                                     *)
(* ------------------------------------------------------------------ *)

type size_breakdown = {
  name_dict_bytes : int;
  tree_bytes : int;  (** succinct (BP + wavelet) encoding — what v4 images store *)
  containers_bytes : int;
  models_bytes : int;
  summary_bytes : int;
  index_bytes : int;
      (** the charge for the navigation directories (rank/select +
          min-excess blocks) an on-storage succinct layout would carry,
          from the node count and tag width; the v4 counterpart of the
          old B+ page index. In memory the tree navigates flat arrays
          instead. *)
  total_bytes : int;  (** everything: the full repository on storage *)
  essential_bytes : int;
      (** without access-support structures: containers + models + dict +
          forward-only structure tree (no parent support, no directories,
          no summary) *)
}

let buffer_size f =
  let buf = Buffer.create 4096 in
  f buf;
  Buffer.length buf

let size_breakdown (t : t) : size_breakdown =
  let name_dict_bytes = Name_dict.serialized_size t.dict in
  let tree_bytes = buffer_size (fun b -> Structure_tree.serialize_succinct b t.tree) in
  let containers_bytes =
    Array.fold_left (fun acc c -> acc + buffer_size (fun b -> Container.serialize b c)) 0
      t.containers
  in
  let models_bytes =
    List.fold_left (fun acc (_, m) -> acc + Compress.Codec.model_size m) 0 (models t)
  in
  let summary_bytes = buffer_size (fun b -> Summary.serialize b t.summary) in
  let index_bytes = Structure_tree.index_bytes t.tree in
  let total_bytes =
    name_dict_bytes + tree_bytes + containers_bytes + models_bytes + summary_bytes
    + index_bytes
  in
  (* Essential = compressed values + models + dict + a forward-only tree
     (shape bits + tags + marker info, no parent support, no value
     back-pointers, no rank directories). *)
  let forward_tree_bytes = Structure_tree.forward_only_bytes t.tree in
  let container_codes_bytes =
    Array.fold_left (fun acc c -> acc + Container.compressed_bytes c) 0 t.containers
  in
  let essential_bytes =
    name_dict_bytes + forward_tree_bytes + container_codes_bytes + models_bytes
  in
  let result =
    {
      name_dict_bytes;
      tree_bytes;
      containers_bytes;
      models_bytes;
      summary_bytes;
      index_bytes;
      total_bytes;
      essential_bytes;
    }
  in
  if Xquec_obs.is_enabled () then begin
    let g name v = Xquec_obs.Metrics.set_gauge ("repository." ^ name) (float_of_int v) in
    g "total_bytes" total_bytes;
    g "tree_bytes" tree_bytes;
    g "containers_bytes" containers_bytes;
    g "models_bytes" models_bytes;
    g "summary_bytes" summary_bytes;
    g "original_bytes" t.original_size
  end;
  result

(** Compression factor 1 - cs/os as defined in §5. *)
let compression_factor (t : t) =
  let sizes = size_breakdown t in
  1.0 -. (float_of_int sizes.total_bytes /. float_of_int t.original_size)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Format v2+ images start with a magic; v1 images start directly with
   the varint-prefixed source name, whose length byte can never collide
   with 'X'. v2, v3 and v4 share the section layout; v3 adds one
   format-flags byte right after the magic (bit 0 = structure tree
   stored in the packed delta+varint encoding) and always uses the
   block container encoding; v4 keeps the flags byte and sets bit 1
   instead (structure tree stored succinctly: BP bitvector + wavelet
   tags). Only v4 is written; v1 (records inline), v2 (block
   containers, legacy tree) and v3 (packed tree) still load. *)
let v2_magic = "XQC\x02"

let v3_magic = "XQC\x03"

let v4_magic = "XQC\x04"

let flag_packed_tree = 1

let flag_succinct_tree = 2

let serialize (t : t) : string =
  Xquec_obs.Trace.with_span ~name:"repository.serialize"
    ~attrs:[ ("source", t.source_name) ]
  @@ fun () ->
  let buf = Buffer.create (1 lsl 16) in
  let add_varint = Compress.Rle.add_varint in
  let add_str s =
    add_varint buf (String.length s);
    Buffer.add_string buf s
  in
  Buffer.add_string buf v4_magic;
  Buffer.add_char buf (Char.chr flag_succinct_tree);
  add_str t.source_name;
  add_varint buf t.original_size;
  (* name dictionary *)
  let names = Name_dict.to_list t.dict in
  add_varint buf (List.length names);
  List.iter add_str names;
  (* source models *)
  let ms = models t in
  add_varint buf (List.length ms);
  List.iter
    (fun (id, m) ->
      add_varint buf id;
      add_str (Compress.Codec.algorithm_name (Compress.Codec.algorithm_of_model m));
      let body =
        match m with
        | Compress.Codec.M_huffman h -> Compress.Huffman.serialize_model h
        | Compress.Codec.M_alm a -> Compress.Alm.serialize_model a
        | Compress.Codec.M_arith a -> Compress.Arith.serialize_model a
        | Compress.Codec.M_hu_tucker h -> Compress.Hu_tucker.serialize_model h
        | Compress.Codec.M_bzip -> ""
        | Compress.Codec.M_numeric n -> Compress.Ipack.serialize_model n
      in
      add_str body)
    ms;
  (* summary first: tree value pointers are resolved against it on load *)
  Summary.serialize buf t.summary;
  Structure_tree.serialize_succinct buf t.tree;
  add_varint buf (Array.length t.containers);
  Array.iter (fun c -> Container.serialize buf c) t.containers;
  Buffer.contents buf

(* Container ids of the tree's values, from the summary's id lists in
   one pre-order pass over the summary nodes: every value of a node
   lives in its summary node's container (an element's values are its
   text children, an attribute node's single value is its value). The
   pass checks that the lists cover every tree node exactly once, each
   under its own tag and below a parent listed by the parent summary
   node; {!Structure_tree.set_containers} then checks every record
   index against its container. *)
let resolve_containers tree (summary : Summary.t) (containers : Container.t array) =
  let n = Structure_tree.node_count tree in
  (* per tree node, the pre-order rank of the summary node listing it;
     then, in place, that summary node's container *)
  let owner = Array.make n (-1) in
  let cont_of_rank = ref [] in
  let rank = ref 0 in
  let covered = ref 0 in
  let rec visit parent_rank (sn : Summary.node) =
    let r = !rank in
    incr rank;
    cont_of_rank := Option.value sn.Summary.text_container ~default:(-1) :: !cont_of_rank;
    let ids = sn.Summary.ids in
    for i = 0 to Array.length ids - 1 do
      let id = ids.(i) in
      if id < 0 || id >= n then failwith "repository: summary id out of range";
      if owner.(id) >= 0 then failwith "repository: tree node listed twice in the summary";
      if Structure_tree.tag tree id <> sn.Summary.tag then
        failwith "repository: summary tag does not match the tree";
      let p = Structure_tree.parent tree id in
      if (if p < 0 then parent_rank <> 0 else owner.(p) <> parent_rank) then
        failwith "repository: summary parent does not match the tree";
      owner.(id) <- r
    done;
    covered := !covered + Array.length ids;
    List.iter (visit r) sn.Summary.kids
  in
  visit (-1) summary.Summary.root;
  if !covered <> n then failwith "repository: summary does not cover the tree";
  let cont_of_rank = Array.of_list (List.rev !cont_of_rank) in
  for id = 0 to n - 1 do
    owner.(id) <- cont_of_rank.(owner.(id))
  done;
  Structure_tree.set_containers tree owner ~records:(Array.map Container.length containers)

let parse (s : string) : t =
  (* Exactly four headers are accepted: v4 and v3 with their one flags
     value, v2 (no flags byte) and v1 (no magic). Anything else that
     starts with "XQC" is a format this reader does not know. *)
  let has_header magic flags =
    let n = String.length magic in
    String.starts_with ~prefix:magic s && String.length s > n && Char.code s.[n] = flags
  in
  let (container_deserialize, tree_deserialize, body) =
    if has_header v4_magic flag_succinct_tree then
      (Container.deserialize, Structure_tree.deserialize_succinct, 5)
    else if has_header v3_magic flag_packed_tree then
      (Container.deserialize, Structure_tree.deserialize_v3, 5)
    else if String.starts_with ~prefix:v2_magic s then
      (Container.deserialize, Structure_tree.deserialize_v2, 4)
    else if String.starts_with ~prefix:"XQC" s then
      failwith
        (Printf.sprintf "repository: unsupported format %S"
           (String.sub s 0 (min 5 (String.length s))))
    else (Container.deserialize_v1, Structure_tree.deserialize_v2, 0)
  in
  let read_varint = Compress.Rle.read_varint in
  let pos = ref body in
  let str () =
    let (n, p) = read_varint s !pos in
    let v = String.sub s p n in
    pos := p + n;
    v
  in
  let varint () =
    let (v, p) = read_varint s !pos in
    pos := p;
    v
  in
  let source_name = str () in
  let original_size = varint () in
  let dict = Name_dict.create () in
  let n_names = varint () in
  for _ = 1 to n_names do
    ignore (Name_dict.intern dict (str ()))
  done;
  let model_table : (int, Compress.Codec.model) Hashtbl.t = Hashtbl.create 16 in
  let n_models = varint () in
  for _ = 1 to n_models do
    let id = varint () in
    let alg = Compress.Codec.algorithm_of_name (str ()) in
    let body = str () in
    let model =
      match alg with
      | Compress.Codec.Huffman_alg ->
        Compress.Codec.M_huffman (Compress.Huffman.deserialize_model body)
      | Compress.Codec.Alm_alg -> Compress.Codec.M_alm (Compress.Alm.deserialize_model body)
      | Compress.Codec.Arith_alg ->
        Compress.Codec.M_arith (Compress.Arith.deserialize_model body)
      | Compress.Codec.Hu_tucker_alg ->
        Compress.Codec.M_hu_tucker (Compress.Hu_tucker.deserialize_model body)
      | Compress.Codec.Bzip_alg -> Compress.Codec.M_bzip
      | Compress.Codec.Numeric_alg ->
        Compress.Codec.M_numeric (Compress.Ipack.deserialize_model body)
    in
    Hashtbl.add model_table id model
  done;
  let (summary, p) = Summary.deserialize ~dict s !pos in
  pos := p;
  let (tree, p) = tree_deserialize s !pos in
  pos := p;
  let n_containers = varint () in
  let containers =
    Array.init n_containers (fun _ ->
        let (c, p) = container_deserialize ~models:model_table s !pos in
        pos := p;
        c)
  in
  resolve_containers tree summary containers;
  { dict; tree; containers; summary; source_name; original_size; compactions = no_compactions () }

exception Corrupt of string

let deserialize (s : string) : t =
  Xquec_obs.Trace.with_span ~name:"repository.deserialize"
    ~attrs:[ ("bytes", string_of_int (String.length s)) ]
  @@ fun () ->
  (* whatever a section parser raises on input that is not an image, or
     not a whole one, leaves as the one typed error *)
  try parse s with
  | (Out_of_memory | Sys.Break) as e -> raise e
  | Failure msg | Invalid_argument msg -> raise (Corrupt msg)
  | e -> raise (Corrupt (Printexc.to_string e))
