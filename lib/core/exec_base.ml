(* The executor's base (§4): the items and bindings every operator
   passes along, the evaluation context, and the profiling shims through
   which every operator reports to EXPLAIN. *)

open Storage
open Xquery

type item =
  | Node of int
  | Cval of { cont : Container.t; code : string }
  | Att of string * item
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of elem

and elem = { e_tag : string; e_attrs : (string * item list) list; e_kids : kid list }

and kid = Kid_node of int | Kid_elem of elem | Kid_text of item list

type seqv = Mat of item list | All_nodes of Summary.node list | All_values of Summary.node list

type binding = { seq : seqv; snodes : Summary.node list; origin : origin }

and origin = Loose | Member of bset * int | Run of bset * int

and bset = {
  bs_items : item array;
  bs_snodes : Summary.node list;
  mutable bs_groups : groups;
  mutable bs_memo : (Ast.step list * batch) list;
}

and groups =
  | Unexamined
  | Per_tuple
  | Grouped of { slot_of : int array; groups : group list }

and group = { g_snode : Summary.node; g_base : int; g_nodes : int array }

and batch = {
  b_slot_of : int array;
  b_runs : item list array;
  b_starts : int array;
  b_union : bset option;
}

let mat items = { seq = Mat items; snodes = []; origin = Loose }

let member bs p = { seq = Mat [ bs.bs_items.(p) ]; snodes = []; origin = Member (bs, p) }

let binding_set items snodes =
  { bs_items = Array.of_list items; bs_snodes = snodes; bs_groups = Unexamined; bs_memo = [] }

type pinned = { p_cont : Container.t; p_blocks : Buffer_pool.decoded option array }

type blocks = {
  conts : Container.t array;
  pinned : pinned option array;
  mutable held : int;
  mutable fetches : int;
}

let blocks repo =
  let conts = repo.Repository.containers in
  { conts; pinned = Array.make (Array.length conts) None; held = 0; fetches = 0 }

type ctx = {
  repo : Repository.t;
  prof : Xquec_obs.Explain.t option;
  prof_ops : bool;
  values : blocks;
}

let mk_ctx repo = { repo; prof = None; prof_ops = true; values = blocks repo }

let quiet ctx = if ctx.prof_ops then { ctx with prof_ops = false } else ctx

type env = (string * binding) list

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Repository helpers                                                  *)
(* ------------------------------------------------------------------ *)

let tag_code ctx name = Name_dict.code ctx.repo.Repository.dict name

let tag_name ctx code = Name_dict.name ctx.repo.Repository.dict code

let is_attr_code ctx code = Name_dict.is_attribute ctx.repo.Repository.dict code

let local_name ctx code =
  let n = tag_name ctx code in
  if is_attr_code ctx code then String.sub n 1 (String.length n - 1) else n

let container ctx id = ctx.repo.Repository.containers.(id)

(* ------------------------------------------------------------------ *)
(* Profiling shims (free when the ctx carries no Explain profile)      *)
(* ------------------------------------------------------------------ *)

let with_cache_delta (node : Xquec_obs.Explain.node) (f : unit -> 'a) : 'a =
  match Xquec_obs.Ledger.current () with
  | None -> f ()
  | Some l ->
    let open Xquec_obs.Ledger in
    let hits = l.hits and misses = l.misses and waits = l.latch_waits in
    let skipped = l.blocks_skipped and skipped_bytes = l.payload_skipped in
    let decoded_bytes = l.decoded_bytes in
    let v = f () in
    Xquec_obs.Explain.set_cache node ~skipped_bytes:(l.payload_skipped - skipped_bytes)
      ~hits:(l.hits - hits) ~misses:(l.misses - misses) ~waits:(l.latch_waits - waits)
      ~skipped:(l.blocks_skipped - skipped) ~decoded_bytes:(l.decoded_bytes - decoded_bytes) ();
    v

let prof_rows ctx ?(once = false) ?(attrs : ('a -> (string * string) list) option)
    ?(keep : (Xquec_obs.Explain.node -> 'a -> unit) option) ~kind (op : unit -> string)
    ~(rows : 'a -> int) (f : unit -> 'a) : 'a =
  match ctx.prof with
  | Some p when ctx.prof_ops || once ->
    Xquec_obs.Explain.with_op p ~kind (op ()) (fun node ->
        let v = with_cache_delta node f in
        Xquec_obs.Explain.set_rows node (rows v);
        Option.iter (fun a -> Xquec_obs.Explain.add_attrs node (a v)) attrs;
        Option.iter (fun k -> k node v) keep;
        v)
  | _ -> f ()

let note_cmp ctx ~compressed n =
  if n > 0 then begin
    (match ctx.prof with
    | Some p -> Xquec_obs.Explain.note_cmp p ~compressed n
    | None -> ());
    if Xquec_obs.is_enabled () then
      Xquec_obs.Metrics.incr ~by:n
        (if compressed then "executor.cmp.compressed" else "executor.cmp.decompressed")
  end
