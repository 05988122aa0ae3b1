(** Deterministic PRNG (xorshift64-star) for reproducible documents. *)

(** Generator state (mutable; never zero internally). *)
type t

(** A generator seeded with [n]; equal seeds reproduce the same stream. *)
val of_int : int -> t

(** Uniform int in [0, bound). *)
val int : t -> int -> int

(** Fair coin flip. *)
val bool : t -> bool

(** [chance t p] is true with probability [p]. *)
val chance : t -> float -> bool

(** Uniform element of a non-empty array. *)
val pick : t -> 'a array -> 'a
