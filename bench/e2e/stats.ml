(* Order statistics over a run's samples. Quantiles interpolate
   linearly between closest ranks (numpy's default method). Whole-run
   statistics, not windowed ones: on a shared 2-core host the speed
   drifts for longer than a run, so neither the median nor the best of
   5-48 windows repeated better across runs; [Host] corrects for the
   drift instead. *)

let quantile (xs : float array) (q : float) : float =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs = if xs = [||] then Float.nan else sum xs /. float_of_int (Array.length xs)

let geomean xs = exp (mean (Array.map log xs))

(* [a / b], or 0 when nothing was attempted ([b = 0]). *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Distance between the first and third quartile as a share of the
   median: the run-to-run spread --compare weighs a bound against. *)
let spread xs =
  if Array.length xs < 2 then 0.0
  else Float.abs (quantile xs 0.75 -. quantile xs 0.25) /. Float.abs (median xs)
