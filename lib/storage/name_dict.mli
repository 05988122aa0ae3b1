(** Node-name dictionary (§2.2): element and attribute names encoded on
    ceil(log2 N) bits; attribute names carry a '@' prefix. *)

(** The dictionary; mutable, grows via {!intern}. *)
type t

(** Fresh empty dictionary. *)
val create : unit -> t

(** Idempotent: returns the existing code for a known name. *)
val intern : t -> string -> int

(** Code of a name, if interned. *)
val code : t -> string -> int option

(** Raises [Invalid_argument] on an out-of-range code. *)
val name : t -> int -> string

(** Number of interned names. *)
val size : t -> int

(** [is_attribute t code]: the code names an attribute ('@' prefix);
    false for codes out of range. *)
val is_attribute : t -> int -> bool

(** Bits per encoded tag (the paper's example: 92 names on 7 bits). *)
val bits_per_code : t -> int

(** Bytes the dictionary occupies in a serialized repository. *)
val serialized_size : t -> int

(** All names in code order (code [i] = [List.nth] [i]). *)
val to_list : t -> string list
