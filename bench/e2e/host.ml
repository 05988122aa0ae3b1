(* The host's speed, from a fixed reference computation timed between
   the benchmark's operations. On a 2-vCPU KVM guest of a shared Intel
   Xeon host the same code runs up to 1.6x slower (over HTTP up to 3x) for seconds to minutes at
   a time, and the median of a 12 s closed loop moved by 10-42% over ten
   runs. Every end-to-end time is scaled by [nominal_ms] over the
   reference's median time around it, so it reads as the time on an
   unloaded host. Scaled, such runs spread by 1-8%
   (up to 15% in the noisiest period measured). See README.md.

   The reference does what OCaml code does to memory: random reads and
   writes in a cache-sized table, a chain of dependent loads through a
   table larger than the cache (like following pointers), and
   sequential writes (like allocating). It allocates nothing, and its
   8.25 MiB of tables live outside the OCaml heap (in the peak RSS, not
   in what the GC scans or paces by: inside the heap they doubled the
   peak RSS of xmark_warm), so the program's heap cannot change its
   time; only load on the host can. *)

open Bigarray

let now = Unix.gettimeofday

(* A round figure near the reference's time between operations on that
   guest (0.3-0.4 ms), so scaled times read close to measured ones. *)
let nominal_ms = 0.3

let bytes n : (int, int8_unsigned_elt, c_layout) Array1.t =
  let a = Array1.create int8_unsigned c_layout n in
  Array1.fill a 0;
  a

let small = bytes (256 * 1024)

(* One random cycle through 512 Ki slots (4 MiB), by Sattolo's
   shuffle. *)
let chain : (int, int_elt, c_layout) Array1.t =
  let n = 1 lsl 19 in
  let a = Array1.create int c_layout n in
  for i = 0 to n - 1 do
    a.{i} <- i
  done;
  let rng = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let stream = bytes (4 * 1024 * 1024)

let offset = ref 0

let reference () =
  let j = ref 1 and acc = ref 0 in
  for _ = 1 to 10000 do
    j := (!j * 1103515245 + 12345) land (Array1.dim small - 1);
    acc := !acc + Array1.unsafe_get small !j;
    Array1.unsafe_set small !j (!acc land 255)
  done;
  let slot = ref 0 in
  for _ = 1 to 1500 do
    slot := Array1.unsafe_get chain !slot
  done;
  ignore (Sys.opaque_identity (!acc + !slot));
  let o = !offset in
  for i = 0 to (128 * 1024) - 1 do
    Array1.unsafe_set stream (o + i) (i land 255)
  done;
  offset := (o + (128 * 1024)) land (Array1.dim stream - 1)

type t = {
  mutable at : float array;  (** start of each sample, in time order *)
  mutable ms : float array;  (** its duration *)
  mutable n : int;
  mutable last : float;  (** end of the last sample *)
}

let create () = { at = Array.make 1024 0.0; ms = Array.make 1024 0.0; n = 0; last = neg_infinity }

let sample (t : t) : unit =
  let t0 = now () in
  reference ();
  let t1 = now () in
  if t.n = Array.length t.at then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.0) in
    t.at <- grow t.at;
    t.ms <- grow t.ms
  end;
  t.at.(t.n) <- t0;
  t.ms.(t.n) <- (t1 -. t0) *. 1000.0;
  t.n <- t.n + 1;
  t.last <- t1

(* A sample unless one was taken in the last 50 ms: called between
   operations, it costs under 1% of the time. *)
let tick (t : t) : unit = if now () -. t.last >= 0.05 then sample t

(* The first sample that starts at or after [time]. *)
let first_from (t : t) (time : float) : int =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.at.(mid) < time then go (mid + 1) hi else go lo mid
  in
  go 0 t.n

(* The median reference time of the samples that start in [from,
   until], or of the nearest sample when none does. *)
let median_ms (t : t) ~(from : float) ~(until : float) : float =
  let a = first_from t from and b = first_from t until in
  if b > a then Stats.median (Array.sub t.ms a (b - a)) else t.ms.(min a (t.n - 1))

(* What to scale a time measured over [from, until] by: [nominal_ms]
   over the reference's median time within a second of it. *)
let factor (t : t) ~(from : float) ~(until : float) : float =
  nominal_ms /. median_ms t ~from:(from -. 1.0) ~until:(until +. 1.0)
