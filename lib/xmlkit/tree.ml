(* In-memory XML tree (DOM-like), deliberately minimal: elements carry a tag,
   an attribute list and children; character data is a [Text] node. *)

type t =
  | Element of string * (string * string) list * t list
  | Text of string

(** A document is a root element (prolog/PIs/comments are dropped at parse). *)
type document = { root : t }

let text s = Text s

let tag = function Element (t, _, _) -> Some t | Text _ -> None
let children = function Element (_, _, c) -> c | Text _ -> []

let attr node name =
  match node with
  | Element (_, a, _) -> List.assoc_opt name a
  | Text _ -> None

let is_text = function Text _ -> true | Element _ -> false

(** Concatenation of all descendant text nodes, in document order. *)
let rec text_content node =
  match node with
  | Text s -> s
  | Element (_, _, kids) -> String.concat "" (List.map text_content kids)

(** Immediate text children concatenated (no descent into sub-elements). *)
let immediate_text node =
  match node with
  | Text s -> s
  | Element (_, _, kids) ->
    let buf = Buffer.create 16 in
    let add = function Text s -> Buffer.add_string buf s | Element _ -> () in
    List.iter add kids;
    Buffer.contents buf

(** Pre-order fold over all nodes (elements and text). *)
let rec fold f acc node =
  let acc = f acc node in
  match node with
  | Text _ -> acc
  | Element (_, _, kids) -> List.fold_left (fold f) acc kids

(** All descendant-or-self elements with the given tag, document order. *)
let descendants_with_tag node name =
  let collect acc n =
    match n with
    | Element (t, _, _) when String.equal t name -> n :: acc
    | Element _ | Text _ -> acc
  in
  List.rev (fold collect [] node)

let rec equal a b =
  match a, b with
  | Text s, Text s' -> String.equal s s'
  | Element (t, at, k), Element (t', at', k') ->
    String.equal t t'
    && List.length at = List.length at'
    && List.for_all2
         (fun (n, v) (n', v') -> String.equal n n' && String.equal v v')
         at at'
    && List.length k = List.length k'
    && List.for_all2 equal k k'
  | Text _, Element _ | Element _, Text _ -> false
