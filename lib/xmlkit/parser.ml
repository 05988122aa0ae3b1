(* DOM parser built on the SAX layer. *)

exception Malformed = Sax.Malformed

type frame = { tag : string; attributes : (string * string) list; mutable rev_children : Tree.t list }

(** Parse a complete document; returns the root element. *)
let parse_string src : Tree.document =
  let stack : frame list ref = ref [] in
  let root : Tree.t option ref = ref None in
  let handle ev =
    match ev with
    | Sax.Start_element (tag, attributes) ->
      stack := { tag; attributes; rev_children = [] } :: !stack
    | Sax.End_element name -> (
      match !stack with
      | fr :: rest ->
        if not (String.equal fr.tag name) then
          raise
            (Malformed
               (Printf.sprintf "mismatched tags: <%s> closed by </%s>" fr.tag name, 0));
        let node = Tree.Element (fr.tag, fr.attributes, List.rev fr.rev_children) in
        (match rest with
        | parent :: _ -> parent.rev_children <- node :: parent.rev_children
        | [] -> root := Some node);
        stack := rest
      | [] -> raise (Malformed ("stray closing tag", 0)))
    | Sax.Characters s -> (
      match !stack with
      | fr :: _ -> fr.rev_children <- Tree.Text s :: fr.rev_children
      | [] -> raise (Malformed ("text outside root element", 0)))
  in
  Sax.parse_string ~f:handle src;
  match !root with
  | Some r -> { Tree.root = r }
  | None -> raise (Malformed ("no root element", 0))
