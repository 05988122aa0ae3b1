(* Node-name dictionary (§2.2): element and attribute names are encoded on
   ceil(log2 N_t) bits. Attribute names are distinguished with a '@'
   prefix, as usual in path expressions. *)

type t = {
  by_name : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
}

let create () = { by_name = Hashtbl.create 64; names = Array.make 16 ""; count = 0 }

let intern t name =
  match Hashtbl.find_opt t.by_name name with
  | Some code -> code
  | None ->
    let code = t.count in
    if code >= Array.length t.names then begin
      let bigger = Array.make (2 * Array.length t.names) "" in
      Array.blit t.names 0 bigger 0 code;
      t.names <- bigger
    end;
    t.names.(code) <- name;
    Hashtbl.add t.by_name name code;
    t.count <- t.count + 1;
    code

let code t name = Hashtbl.find_opt t.by_name name

let name t code =
  if code < 0 || code >= t.count then invalid_arg "Name_dict.name";
  t.names.(code)

let size t = t.count

let is_attribute t code =
  code >= 0 && code < t.count && String.starts_with ~prefix:"@" t.names.(code)

(** Bits per encoded tag: ceil(log2 N_t) (the paper's XMark example: 92
    names fit on 7 bits). *)
let bits_per_code t = if t.count <= 1 then 1 else Compress.Bitio.width_for t.count

let serialized_size t =
  let total = ref 4 in
  for i = 0 to t.count - 1 do
    total := !total + 2 + String.length t.names.(i)
  done;
  !total

let to_list t = List.init t.count (fun i -> t.names.(i))
