(** Loader / compressor (§1.1 module 1): one SAX pass shreds an XML
    document into the repository structures; values land in the
    container of their root-to-leaf path (projection "prepared in
    advance", §2.3). Numeric containers get the packed codec; strings
    default to ALM, the paper's no-workload choice. *)

(** Knobs for the one-pass load. *)
type options = {
  default_string_algorithm : Compress.Codec.algorithm;
  detect_numeric : bool;
}

(** ALM strings, numeric detection on. *)
val default_options : options

(** Parse XML text and build a compressed repository registered under
    [name] (the [document("name")] queries resolve against it).
    [workload] names the queries {!Partitioner.optimize} will tune the
    repository for (default none). It re-encodes every container their
    predicates compare, so those that would get a trained ALM model get
    the dictionary-free one ({!Compress.Alm.of_tokens} [[]]) instead:
    the records sort the same under both, since ALM preserves order. *)
val load :
  ?options:options -> ?workload:Xquery.Ast.expr list -> name:string -> string ->
  Storage.Repository.t
