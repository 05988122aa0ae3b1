(* Burrows-Wheeler transform over cyclic rotations. Rotations are
   sorted by comparing them byte by byte; an input the direct sort
   gives up on uses prefix-doubling rank sort (O(n log² n)), so
   adversarial inputs (long runs) stay fast. *)

type t = { data : string; primary : int }

(* Bytes the direct sort may compare per n·log₂n: rotations of text
   share short prefixes, runs exhaust it. *)
let direct_budget_factor = 8

exception Give_up

(* Rotations sorted by direct comparison, or [None] when two rotations
   are equal in full (a periodic input, where the order of equal
   rotations, and so the primary index, is the doubling sort's) or the
   comparison budget runs out. Without equal rotations the order is
   total, so any correct sort gives the doubling sort's order.

   [key.(i)] holds rotation [i]'s first 7 bytes as a big-endian integer,
   so most comparisons are one integer comparison; equal keys compare
   the rest byte by byte over [s ^ s]. The sort is a merge sort on
   integer arrays that calls the comparison directly. *)
let direct_sort (s : string) : int array option =
  let n = String.length s in
  let ss = s ^ s in
  let log2 = ref 1 in
  while 1 lsl !log2 < n do incr log2 done;
  let budget = ref (direct_budget_factor * n * !log2) in
  let key = Array.make n 0 in
  let k0 = ref 0 in
  for j = 0 to 6 do
    k0 := (!k0 lsl 8) lor Char.code (String.unsafe_get s (j mod n))
  done;
  key.(0) <- !k0;
  for i = 1 to n - 1 do
    k0 :=
      ((!k0 lsl 8) land 0xff_ffff_ffff_ffff) lor Char.code (String.unsafe_get s ((i + 6) mod n));
    key.(i) <- !k0
  done;
  (* The first 7 bytes cover a rotation of at most 7 bytes (repeated),
     so there equal keys are equal rotations. *)
  let rec rest a b k =
    if k >= n then raise Give_up
    else
      let c = Char.compare (String.unsafe_get ss (a + k)) (String.unsafe_get ss (b + k)) in
      if c <> 0 then begin
        budget := !budget - k - 1;
        if !budget < 0 then raise Give_up;
        c
      end
      else rest a b (k + 1)
  in
  let cmp a b =
    let ka = Array.unsafe_get key a and kb = Array.unsafe_get key b in
    if ka <> kb then ka - kb else rest a b 7
  in
  (* merge [src.(lo .. mid-1)] and [src.(mid .. hi-1)] into [dst] *)
  let merge src dst lo mid hi =
    let i = ref lo and j = ref mid in
    for d = lo to hi - 1 do
      if !j >= hi || (!i < mid && cmp (Array.unsafe_get src !i) (Array.unsafe_get src !j) <= 0)
      then begin
        Array.unsafe_set dst d (Array.unsafe_get src !i);
        incr i
      end
      else begin
        Array.unsafe_set dst d (Array.unsafe_get src !j);
        incr j
      end
    done
  in
  let a = ref (Array.init n Fun.id) and b = ref (Array.make n 0) in
  let width = ref 1 in
  match
    while !width < n do
      let w = !width in
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + w) and hi = min n (!lo + (2 * w)) in
        merge !a !b !lo mid hi;
        lo := hi
      done;
      let t = !a in
      a := !b;
      b := t;
      width := 2 * w
    done
  with
  | () -> Some !a
  | exception Give_up -> None

let doubling_sort (s : string) : int array =
  let n = String.length s in
  let sa = Array.init n (fun i -> i) in
  let rank = Array.init n (fun i -> Char.code s.[i]) in
  let tmp = Array.make n 0 in
  let k = ref 1 in
  let continue = ref true in
  while !continue && !k < n do
    let step = !k in
    (* rotations ordered by the pair (rank i, rank (i + step)),
       compared without building the pair *)
    let cmp a b =
      let c = Int.compare rank.(a) rank.(b) in
      if c <> 0 then c else Int.compare rank.((a + step) mod n) rank.((b + step) mod n)
    in
    Array.sort cmp sa;
    tmp.(sa.(0)) <- 0;
    for i = 1 to n - 1 do
      tmp.(sa.(i)) <- (tmp.(sa.(i - 1)) + if cmp sa.(i) sa.(i - 1) = 0 then 0 else 1)
    done;
    Array.blit tmp 0 rank 0 n;
    if rank.(sa.(n - 1)) = n - 1 then continue := false;
    k := !k * 2
  done;
  sa

let transform (s : string) : t =
  let n = String.length s in
  if n = 0 then { data = ""; primary = 0 }
  else begin
    let sa =
      match direct_sort s with
      | Some sa -> sa
      | None -> doubling_sort s
    in
    let primary = ref 0 in
    let out =
      String.init n (fun i ->
          let rot = sa.(i) in
          if rot = 0 then primary := i;
          s.[(rot + n - 1) mod n])
    in
    { data = out; primary = !primary }
  end

let inverse (t : t) : string =
  let n = String.length t.data in
  if n = 0 then ""
  else begin
    (* LF mapping via counting sort of the last column. *)
    let counts = Array.make 256 0 in
    String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) t.data;
    let starts = Array.make 256 0 in
    let acc = ref 0 in
    for c = 0 to 255 do
      starts.(c) <- !acc;
      acc := !acc + counts.(c)
    done;
    let lf = Array.make n 0 in
    let seen = Array.make 256 0 in
    for i = 0 to n - 1 do
      let c = Char.code t.data.[i] in
      lf.(i) <- starts.(c) + seen.(c);
      seen.(c) <- seen.(c) + 1
    done;
    let out = Bytes.create n in
    let row = ref t.primary in
    for i = n - 1 downto 0 do
      Bytes.set out i t.data.[!row];
      row := lf.(!row)
    done;
    Bytes.to_string out
  end
