(** Loader / compressor (§1.1 module 1), in two steps: {!parse} shreds
    an XML document in one SAX pass, and {!build} encodes each value
    container once, under the configuration the §3.3 search chose
    from the parse ({!Partitioner.search}) when there is a workload.
    Values land in the container of their root-to-leaf path
    (projection "prepared in advance", §2.3). Numeric containers get
    the packed codec; strings default to ALM, the paper's no-workload
    choice. *)

(** Knobs for the one-pass load. *)
type options = {
  default_string_algorithm : Compress.Codec.algorithm;
  detect_numeric : bool;
}

(** ALM strings, numeric detection on. *)
val default_options : options

(** A parsed document: its name dictionary, summary and tree shape,
    and each container's plain [(value, parent)] records. *)
type parsed

(** Parse XML text for a repository registered under [name] (the
    [document("name")] queries resolve against it). *)
val parse : ?options:options -> name:string -> string -> parsed

(** The parse's name dictionary. *)
val dict : parsed -> Storage.Name_dict.t

(** The parse's summary, sealed. *)
val summary : parsed -> Storage.Summary.t

(** [values p id] is container [id]'s values ordered as an
    order-preserving model sorts them under the loader's choice
    (numbers by packed code, strings by bytes), then by parent. *)
val values : parsed -> int -> string array

(** Encode every container once. A container in a set of
    [configuration] (default none) gets the set's algorithm and a
    model trained on the union of the set's {!values}, shared under
    the set's least id; any other gets the loader's default choice.
    A parse can be built again, sharing its dictionary and summary.
    Raises [Invalid_argument] when a set's algorithm cannot encode its
    values ({!Partitioner.search} never picks such a set). *)
val build : ?configuration:Cost_model.configuration -> parsed -> Storage.Repository.t

(** {!parse} then {!build} with no configuration. *)
val load : ?options:options -> name:string -> string -> Storage.Repository.t
