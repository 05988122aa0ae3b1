(* XML character escaping and entity resolution. Escaping appends into
   the caller's buffer; a string with nothing to escape (almost every
   value) is appended whole, after one scan. *)

(* Every character escaping touches is at most ['>'], so most bytes of
   text take one comparison. *)
let special ~attr c =
  c <= '>' && (c = '<' || c = '>' || c = '&' || (attr && (c = '"' || c = '\'')))

(* [s] from [from] on, escaped, onto [buf]. *)
let add_escaped ~attr buf s from =
  for i = from to String.length s - 1 do
    match String.unsafe_get s i with
    | '<' -> Buffer.add_string buf "&lt;"
    | '>' -> Buffer.add_string buf "&gt;"
    | '&' -> Buffer.add_string buf "&amp;"
    | '"' when attr -> Buffer.add_string buf "&quot;"
    | '\'' when attr -> Buffer.add_string buf "&apos;"
    | c -> Buffer.add_char buf c
  done

let add ~attr buf s =
  let n = String.length s in
  let rec first i = if i = n || special ~attr (String.unsafe_get s i) then i else first (i + 1) in
  let i = first 0 in
  if i = n then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 i;
    add_escaped ~attr buf s i
  end

let add_text buf s = add ~attr:false buf s

let add_attr buf s = add ~attr:true buf s

let escape_appended ~attr buf start =
  let n = Buffer.length buf in
  let rec first i = if i = n || special ~attr (Buffer.nth buf i) then i else first (i + 1) in
  let i = first start in
  if i < n then begin
    let tail = Buffer.sub buf i (n - i) in
    Buffer.truncate buf i;
    add_escaped ~attr buf tail 0
  end

(** Resolve a named or numeric entity body (without [&] and [;]).
    Raises [Failure] on unknown entities. *)
let resolve_entity body =
  match body with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
    let len = String.length body in
    if len >= 2 && body.[0] = '#' then begin
      let code =
        if body.[1] = 'x' || body.[1] = 'X' then
          int_of_string_opt ("0x" ^ String.sub body 2 (len - 2))
        else int_of_string_opt (String.sub body 1 (len - 1))
      in
      match code with
      | Some c when c >= 0 && c < 0x110000 ->
        (* Encode the code point as UTF-8. *)
        let buf = Buffer.create 4 in
        Buffer.add_utf_8_uchar buf (Uchar.of_int c);
        Buffer.contents buf
      | Some _ | None -> failwith ("invalid character reference: &" ^ body ^ ";")
    end
    else failwith ("unknown entity: &" ^ body ^ ";")
