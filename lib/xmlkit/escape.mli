(** XML character escaping and entity resolution. Escaping appends into
    a buffer; a string with nothing to escape is appended whole. *)

(** Append a string escaped as character data ([<], [>], [&]). *)
val add_text : Buffer.t -> string -> unit

(** Append a string escaped as an attribute value (also the double and single quote). *)
val add_attr : Buffer.t -> string -> unit

(** [escape_appended ~attr buf start] escapes, in place, what was
    appended to [buf] since length [start], as {!add_attr} ([attr]) or
    {!add_text} would have: a value decompressed straight into an
    output buffer is escaped there, and copied only from its first
    character that needs escaping. *)
val escape_appended : attr:bool -> Buffer.t -> int -> unit

(** Resolve a named or numeric entity body (without [&] / [;]).
    Raises [Failure] on unknown entities. *)
val resolve_entity : string -> string
