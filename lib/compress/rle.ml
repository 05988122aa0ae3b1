(* Zero-run-length coding for post-MTF streams, where byte 0 dominates.
   A zero byte is followed by a varint giving (run length - 1). *)

let add_varint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let read_varint s pos =
  let v = ref 0 and shift = ref 0 and p = ref pos in
  let continue = ref true in
  while !continue do
    let b = Char.code s.[!p] in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  (!v, !p)

(* The decoders' hot-path reader: no result tuple, and damage raises
   [Failure] instead of escaping as an index error. *)
let take_varint s pos =
  let len = String.length s in
  let v = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !pos >= len then failwith "varint: truncated";
    if !shift > 56 then failwith "varint: overflows an int";
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !v

let encode (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '\000' then begin
      let j = ref !i in
      while !j < n && s.[!j] = '\000' do
        incr j
      done;
      Buffer.add_char buf '\000';
      add_varint buf (!j - !i - 1);
      i := !j
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let decode (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    incr i;
    if c = '\000' then begin
      let (run, p) = read_varint s !i in
      i := p;
      for _ = 0 to run do
        Buffer.add_char buf '\000'
      done
    end
    else Buffer.add_char buf c
  done;
  Buffer.contents buf
