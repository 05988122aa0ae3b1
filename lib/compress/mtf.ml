(* Move-to-front transform. The list is a 256-byte table, copied from
   one constant per call; moving a byte to the front shifts the bytes
   before it up by one with a blit. *)

let identity = String.init 256 Char.chr

let encode (s : string) : string =
  let table = Bytes.of_string identity in
  let out = Bytes.create (String.length s) in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    let pos = ref 0 in
    while Bytes.unsafe_get table !pos <> c do
      incr pos
    done;
    let pos = !pos in
    if pos > 0 then begin
      Bytes.blit table 0 table 1 pos;
      Bytes.unsafe_set table 0 c
    end;
    Bytes.unsafe_set out i (Char.unsafe_chr pos)
  done;
  Bytes.unsafe_to_string out

let decode (s : string) : string =
  let table = Bytes.of_string identity in
  let out = Bytes.create (String.length s) in
  for i = 0 to String.length s - 1 do
    let pos = Char.code (String.unsafe_get s i) in
    let c = Bytes.unsafe_get table pos in
    if pos > 0 then begin
      Bytes.blit table 0 table 1 pos;
      Bytes.unsafe_set table 0 c
    end;
    Bytes.unsafe_set out i c
  done;
  Bytes.unsafe_to_string out
