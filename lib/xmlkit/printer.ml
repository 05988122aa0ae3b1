(* XML serialization. *)

let add_node ?(indent = false) buf node =
  let rec go depth node =
    match node with
    | Tree.Text s -> Buffer.add_string buf (Escape.escape_text s)
    | Tree.Element (tag, attributes, kids) ->
      if indent && Buffer.length buf > 0 then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * depth) ' ')
      end;
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun (n, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf n;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (Escape.escape_attr v);
          Buffer.add_char buf '"')
        attributes;
      (match kids with
      | [] -> Buffer.add_string buf "/>"
      | kids ->
        Buffer.add_char buf '>';
        let only_elements = List.for_all (fun k -> not (Tree.is_text k)) kids in
        List.iter (go (depth + 1)) kids;
        if indent && only_elements then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf (String.make (2 * depth) ' ')
        end;
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>')
  in
  go 0 node

let node_to_string ?indent node =
  let buf = Buffer.create 1024 in
  add_node ?indent buf node;
  Buffer.contents buf

let to_string ?indent (doc : Tree.document) = node_to_string ?indent doc.Tree.root
