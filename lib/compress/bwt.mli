(** Burrows-Wheeler transform over cyclic rotations. Rotations are
    sorted by comparing them directly, under a budget of compared bytes;
    periodic inputs and those that exhaust the budget use a
    prefix-doubling sort (O(n log^2 n)). Both give the same transform. *)

(** Transformed text plus the rank of the original rotation, needed to
    invert. *)
type t = { data : string; primary : int }

(** Forward transform (last column of the sorted rotation matrix). *)
val transform : string -> t

(** Invert {!transform}. *)
val inverse : t -> string
