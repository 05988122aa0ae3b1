(* XMill-like compressor (Liefke & Suciu, SIGMOD'00) — the
   compression-ratio baseline of Fig. 6.

   Like XQueC it separates structure from content and groups values into
   per-path containers; unlike XQueC each container is coalesced into a
   single chunk and compressed as a whole (BWT pipeline + LZSS second
   pass), so individual values are NOT accessible: querying requires
   decompressing entire containers. *)

open Xmlkit

type t = {
  names : string array;                    (* tag dictionary *)
  structure : string;                      (* compressed structure stream *)
  containers : (string * string) array;    (* path, compressed value chunk *)
  original_size : int;
}

(* Structure stream opcodes. *)
let op_open = '\001'
let op_close = '\002'
let op_text = '\003'
let op_attr = '\004'

let add_varint = Compress.Rle.add_varint
let read_varint = Compress.Rle.read_varint

let compress (xml : string) : t =
  let names = Hashtbl.create 64 in
  let name_list = ref [] in
  let intern n =
    match Hashtbl.find_opt names n with
    | Some c -> c
    | None ->
      let c = Hashtbl.length names in
      Hashtbl.add names n c;
      name_list := n :: !name_list;
      c
  in
  (* container per path: values are \0-separated in one chunk *)
  let containers : (string, int * Buffer.t) Hashtbl.t = Hashtbl.create 64 in
  let container_order = ref [] in
  let container_for path =
    match Hashtbl.find_opt containers path with
    | Some (id, buf) -> (id, buf)
    | None ->
      let id = Hashtbl.length containers in
      let buf = Buffer.create 256 in
      Hashtbl.add containers path (id, buf);
      container_order := path :: !container_order;
      (id, buf)
  in
  let structure = Buffer.create 4096 in
  let stack = ref [] in
  let path () = String.concat "/" (List.rev !stack) in
  let handle ev =
    match ev with
    | Sax.Start_element (tag, attrs) ->
      Buffer.add_char structure op_open;
      add_varint structure (intern tag);
      stack := tag :: !stack;
      List.iter
        (fun (n, v) ->
          Buffer.add_char structure op_attr;
          add_varint structure (intern ("@" ^ n));
          let (id, buf) = container_for (path () ^ "/@" ^ n) in
          add_varint structure id;
          Buffer.add_string buf v;
          Buffer.add_char buf '\000')
        attrs
    | Sax.End_element _ ->
      Buffer.add_char structure op_close;
      stack := (match !stack with _ :: r -> r | [] -> [])
    | Sax.Characters text ->
      Buffer.add_char structure op_text;
      let (id, buf) = container_for (path () ^ "/#text") in
      add_varint structure id;
      Buffer.add_string buf text;
      Buffer.add_char buf '\000'
  in
  Sax.parse_string ~f:handle xml;
  let compress_chunk chunk =
    (* semantic pass (BWT pipeline), then the gzip-like second pass *)
    let b = Compress.Bzip.compress chunk in
    let l = Compress.Lzss.compress b in
    if String.length l < String.length b then "L" ^ l else "B" ^ b
  in
  let containers =
    List.rev !container_order
    |> List.map (fun path ->
           let (_, buf) = Hashtbl.find containers path in
           (path, compress_chunk (Buffer.contents buf)))
    |> Array.of_list
  in
  {
    names = Array.of_list (List.rev !name_list);
    structure = compress_chunk (Buffer.contents structure);
    containers;
    original_size = String.length xml;
  }

let compressed_size (t : t) : int =
  String.length t.structure
  + Array.fold_left (fun acc (p, c) -> acc + String.length p + String.length c + 4) 0 t.containers
  + Array.fold_left (fun acc n -> acc + String.length n + 2) 0 t.names

let compression_factor (t : t) =
  1.0 -. (float_of_int (compressed_size t) /. float_of_int t.original_size)

let decompress_chunk (chunk : string) : string =
  let body = String.sub chunk 1 (String.length chunk - 1) in
  match chunk.[0] with
  | 'L' -> Compress.Bzip.decompress (Compress.Lzss.decompress body)
  | 'B' -> Compress.Bzip.decompress body
  | _ -> invalid_arg "Xmill: bad chunk tag"

(** Full decompression — the only way to read an XMill archive. *)
let decompress (t : t) : string =
  (* split each container chunk back into its values *)
  let split chunk =
    let s = decompress_chunk chunk in
    let out = ref [] in
    let start = ref 0 in
    String.iteri (fun i c -> if c = '\000' then begin
        out := String.sub s !start (i - !start) :: !out;
        start := i + 1
      end) s;
    Array.of_list (List.rev !out)
  in
  let values = Array.map (fun (_, chunk) -> split chunk) t.containers in
  let cursor = Array.map (fun _ -> ref 0) values in
  let next_value id =
    let c = cursor.(id) in
    let v = values.(id).(!c) in
    incr c;
    v
  in
  let structure = decompress_chunk t.structure in
  let buf = Buffer.create t.original_size in
  let pos = ref 0 in
  let stack = ref [] in
  let pending_open = ref false in
  let close_open_tag () =
    if !pending_open then begin
      Buffer.add_char buf '>';
      pending_open := false
    end
  in
  while !pos < String.length structure do
    let op = structure.[!pos] in
    incr pos;
    if op = op_open then begin
      close_open_tag ();
      let (code, p) = read_varint structure !pos in
      pos := p;
      let tag = t.names.(code) in
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      pending_open := true;
      stack := tag :: !stack
    end
    else if op = op_attr then begin
      let (code, p) = read_varint structure !pos in
      let (cid, p) = read_varint structure p in
      pos := p;
      let name = t.names.(code) in
      Buffer.add_char buf ' ';
      Buffer.add_string buf (String.sub name 1 (String.length name - 1));
      Buffer.add_string buf "=\"";
      Escape.add_attr buf (next_value cid);
      Buffer.add_char buf '"'
    end
    else if op = op_text then begin
      close_open_tag ();
      let (cid, p) = read_varint structure !pos in
      pos := p;
      Escape.add_text buf (next_value cid)
    end
    else if op = op_close then begin
      close_open_tag ();
      match !stack with
      | tag :: rest ->
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>';
        stack := rest
      | [] -> invalid_arg "Xmill: unbalanced structure stream"
    end
    else invalid_arg "Xmill: bad opcode"
  done;
  Buffer.contents buf
