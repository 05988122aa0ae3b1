(** Recursive-descent parser for the XQuery subset of {!Ast}; operates
    on the character stream so direct element constructors parse without
    lexer modes. *)

exception Syntax_error of string * int  (** message, byte offset *)

(** [error_message msg pos] is the one-line text the CLI and the server
    report for [Syntax_error (msg, pos)]:
    ["syntax error at byte POS: MSG"]. *)
val error_message : string -> int -> string

(** [parse src] parses one complete query expression; trailing
    non-whitespace input or any syntax error raises {!Syntax_error}
    with the byte offset of the offending character. *)
val parse : string -> Ast.expr
