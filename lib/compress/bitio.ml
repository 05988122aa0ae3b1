(* Bit-level I/O shared by all codecs.

   Bits are written most-significant-first inside each byte, so that the
   natural byte-string comparison of two zero-padded bit streams coincides
   with the bit-sequence comparison — the property all order-preserving
   codecs in this library rely on.

   Multi-bit writes and reads move up to a byte's worth of bits per step
   (filling or draining the partial byte first), never one bit per call;
   the produced streams are identical to bit-at-a-time ones. *)

module Writer = struct
  (* [acc] holds the [used] (< 8) bits of the pending partial byte. *)
  type t = { buf : Buffer.t; mutable acc : int; mutable used : int }

  let create ?(size = 64) () = { buf = Buffer.create size; acc = 0; used = 0 }

  let add_bit w b =
    w.acc <- (w.acc lsl 1) lor (if b then 1 else 0);
    w.used <- w.used + 1;
    if w.used = 8 then begin
      Buffer.add_char w.buf (Char.unsafe_chr w.acc);
      w.acc <- 0;
      w.used <- 0
    end

  (** [add_bits w v width] writes the [width] low bits of [v],
      most significant first. *)
  let add_bits w v width =
    let left = ref width in
    while !left > 0 do
      let room = 8 - w.used in
      if !left >= room then begin
        (* complete the pending byte with the next [room] bits *)
        let bits = (v lsr (!left - room)) land ((1 lsl room) - 1) in
        Buffer.add_char w.buf (Char.unsafe_chr ((w.acc lsl room) lor bits));
        w.acc <- 0;
        w.used <- 0;
        left := !left - room
      end
      else begin
        w.acc <- (w.acc lsl !left) lor (v land ((1 lsl !left) - 1));
        w.used <- w.used + !left;
        left := 0
      end
    done

  let bit_length w = (8 * Buffer.length w.buf) + w.used

  (** Zero-pad to a byte boundary and return the bytes. *)
  let contents w =
    if w.used = 0 then Buffer.contents w.buf
    else begin
      let last = w.acc lsl (8 - w.used) in
      Buffer.contents w.buf ^ String.make 1 (Char.chr last)
    end
end

module Reader = struct
  type t = { src : string; mutable pos : int (* bit position *) }

  let of_string src = { src; pos = 0 }

  let bits_remaining r = (8 * String.length r.src) - r.pos

  exception Out_of_bits

  let read_bit r =
    let byte = r.pos lsr 3 in
    if byte >= String.length r.src then raise Out_of_bits;
    let off = 7 - (r.pos land 7) in
    r.pos <- r.pos + 1;
    (Char.code (String.unsafe_get r.src byte) lsr off) land 1 = 1

  (* Checked up front, so a read past the end consumes nothing. *)
  let read_bits r width =
    if width > bits_remaining r then raise Out_of_bits;
    let v = ref 0 and pos = ref r.pos and left = ref width in
    while !left > 0 do
      let avail = 8 - (!pos land 7) in
      let take = if !left < avail then !left else avail in
      let byte = Char.code (String.unsafe_get r.src (!pos lsr 3)) in
      v := (!v lsl take) lor ((byte lsr (avail - take)) land ((1 lsl take) - 1));
      pos := !pos + take;
      left := !left - take
    done;
    r.pos <- !pos;
    !v
end

(** Number of bits needed to represent values in [0, n-1]; at least 1. *)
let width_for n =
  let rec go w cap = if cap >= n then w else go (w + 1) (cap * 2) in
  go 1 2
