(* Document statistics: the figures the paper quotes (value share of 70-80%,
   element counts, depth) are computed here for Table 1 and §2.2. *)

type t = {
  elements : int;
  attributes : int;
  text_nodes : int;
  distinct_tags : int;
  max_depth : int;
  text_bytes : int;  (** bytes of PCDATA + attribute values *)
  markup_bytes : int;  (** serialized size minus text bytes *)
  serialized_bytes : int;
}

let value_share st =
  if st.serialized_bytes = 0 then 0.0
  else float_of_int st.text_bytes /. float_of_int st.serialized_bytes

let of_document (doc : Tree.document) =
  let elements = ref 0 in
  let attributes = ref 0 in
  let text_nodes = ref 0 in
  let text_bytes = ref 0 in
  let max_depth = ref 0 in
  let tags = Hashtbl.create 64 in
  let rec go depth node =
    match node with
    | Tree.Text s ->
      incr text_nodes;
      text_bytes := !text_bytes + String.length s
    | Tree.Element (tag, atts, kids) ->
      if depth > !max_depth then max_depth := depth;
      incr elements;
      Hashtbl.replace tags tag ();
      List.iter
        (fun (n, v) ->
          incr attributes;
          Hashtbl.replace tags ("@" ^ n) ();
          text_bytes := !text_bytes + String.length v)
        atts;
      List.iter (go (depth + 1)) kids
  in
  go 1 doc.Tree.root;
  let serialized_bytes = String.length (Printer.to_string doc) in
  {
    elements = !elements;
    attributes = !attributes;
    text_nodes = !text_nodes;
    distinct_tags = Hashtbl.length tags;
    max_depth = !max_depth;
    text_bytes = !text_bytes;
    markup_bytes = serialized_bytes - !text_bytes;
    serialized_bytes;
  }
