(* Value joins (§4): the join keys, the build-once index behind the
   hash join, the sorted probe and decorrelation, and the block-interval
   merge join that joins two sorted containers on their codes. *)

open Storage
open Xquery
open Exec_base
open Value_access
open Cont_access

module Sset = Analysis.Sset

(* Join keys: [Kcode] probes compressed codes directly (both sides under
   one source model — the paper's compressed-domain joins); atoms fall
   back to numeric-then-string comparison semantics. *)
type join_key = Kcode of string | Knum of float | Kstr of string

type key_mode =
  | Mode_code of Container.t  (* a container of the shared model, for re-compression *)
  | Mode_atom

let keys_attr = function
  | Mode_code _ -> ("keys", "codes")
  | Mode_atom -> ("keys", "values")

let note_join mode ~candidates ~matches =
  match mode with
  | Mode_code (c : Container.t) ->
    Xquec_obs.Ledger.note_pred ~container:c.Container.path ~kind:"join" ~candidates ~matches
  | Mode_atom -> ()

let compare_join_key (a : join_key) (b : join_key) : int =
  match a, b with
  | Kcode x, Kcode y -> String.compare x y
  | Knum x, Knum y -> compare x y
  | Kstr x, Kstr y -> String.compare x y
  | Kcode _, _ -> -1
  | _, Kcode _ -> 1
  | Knum _, Kstr _ -> -1
  | Kstr _, Knum _ -> 1

let join_index (op : Ast.cmp_op) (inner : (join_key list * 'a) list) : join_key list -> 'a list =
  let payloads = Array.of_list (List.map snd inner) in
  let in_inner_order idxs = List.map (fun i -> payloads.(i)) (List.sort_uniq compare idxs) in
  match op with
  | Ast.Eq ->
    let table = Hashtbl.create 256 in
    List.iteri (fun i (ks, _) -> List.iter (fun k -> Hashtbl.add table k i) ks) inner;
    fun ks -> in_inner_order (List.concat_map (Hashtbl.find_all table) (List.sort_uniq compare ks))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let keyed =
      List.concat (List.mapi (fun i (ks, _) -> List.map (fun k -> (k, i)) ks) inner)
      |> List.stable_sort (fun (a, _) (b, _) -> compare_join_key a b)
      |> Array.of_list
    in
    let n = Array.length keyed in
    (* first index whose key is > [k] ([strict]) or >= [k] *)
    let first ~strict k =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let m = (!lo + !hi) / 2 in
        let c = compare_join_key (fst keyed.(m)) k in
        if c < 0 || (strict && c = 0) then lo := m + 1 else hi := m
      done;
      !lo
    in
    fun ks ->
      List.concat_map
        (fun k ->
          (* e.g. [outer < inner] holds for the inner keys past [k] *)
          let lo, hi =
            match op with
            | Ast.Lt -> (first ~strict:true k, n)
            | Ast.Le -> (first ~strict:false k, n)
            | Ast.Gt -> (0, first ~strict:false k)
            | _ (* Ge *) -> (0, first ~strict:true k)
          in
          List.init (hi - lo) (fun j -> snd keyed.(lo + j)))
        ks
      |> in_inner_order
  | Ast.Neq -> invalid_arg "join_index: <> is not a join operator"

(* --- Join keys --- *)

let join_key_mode ctx base (op : Ast.cmp_op) left_e right_e : key_mode =
  let conts_of e = static_value_containers ctx base e in
  match conts_of left_e, conts_of right_e with
  | Some (l :: ls), Some (r :: rs) when op = Ast.Eq && codes_replace_values `Eq (l :: r :: ls @ rs)
    ->
    Mode_code l
  | _ -> Mode_atom

let join_key ctx (mode : key_mode) (it : item) : join_key list =
  let it = match it with Att (_, v) -> v | it -> it in
  match mode, it with
  | Mode_code shared, Cval { cont; code } when codes_replace_values `Eq [ shared; cont ] ->
    [ Kcode code ]
  | Mode_code shared, _ ->
    (* same model, different physical item: re-compress the atom *)
    [ Kcode (Container.compress_constant shared (atom_string ctx it)) ]
  | Mode_atom, it -> (
    let a = atomize ctx it in
    match Lazy.force a.a_num with
    | Some f -> [ Knum f ]
    | None -> [ Kstr (Lazy.force a.a_str) ])

let find_join ~var ~bound ~base_vars pending =
  if Sset.is_empty bound then None
  else begin
    let right_vars = Sset.singleton var in
    let rec search seen = function
      | [] -> None
      | c :: rest -> (
        match
          Analysis.join_conjunct ~left_vars:bound ~right_vars ~outer:base_vars c
        with
        | Some (op, left_e, right_e) when op <> Ast.Neq ->
          pending := List.rev_append seen rest;
          Some (op, left_e, right_e)
        | _ -> search (c :: seen) rest)
    in
    search [] !pending
  end

(* ------------------------------------------------------------------ *)
(* Block-interval merge join: counters, toggle and plan shape          *)
(* ------------------------------------------------------------------ *)

(* The block merge join's counters are ledger fields; these read and
   zero the process totals. *)
type join_stats = {
  j_block_joins : int;
  j_blocks_probed : int;
  j_blocks_skipped : int;
  j_skipped_bytes : int;
}

let join_stats () : join_stats =
  Xquec_obs.Ledger.with_totals @@ fun t ->
  {
    j_block_joins = t.block_joins;
    j_blocks_probed = t.join_blocks_probed;
    j_blocks_skipped = t.join_blocks_skipped;
    j_skipped_bytes = t.join_skipped_bytes;
  }

let reset_join_stats () =
  Xquec_obs.Ledger.with_totals @@ fun t ->
  t.block_joins <- 0;
  t.join_blocks_probed <- 0;
  t.join_blocks_skipped <- 0;
  t.join_skipped_bytes <- 0

let block_join_enabled = ref true

let set_block_join on = block_join_enabled := on

let note_block_join ~probed ~skipped ~skipped_bytes =
  Xquec_obs.Ledger.charge (fun l ->
      l.block_joins <- l.block_joins + 1;
      l.join_blocks_probed <- l.join_blocks_probed + probed;
      l.join_blocks_skipped <- l.join_blocks_skipped + skipped;
      l.join_skipped_bytes <- l.join_skipped_bytes + skipped_bytes)

(* One (left container, right container) pairing of a block join with
   its header-overlap estimate; a side with several summary nodes
   contributes one pairing per container product. *)
type block_pairing = {
  bp_lc : Container.t;
  bp_lhops : int;
  bp_rc : Container.t;
  bp_rhops : int;
  bp_est : Cost_model.block_join_estimate;
}

(* A fully-decided block merge join: everything needed to execute it
   without re-checking applicability. [pl_tuple_nodes] pairs each outer
   tuple delta with the node id its probe-side variable is bound to;
   [pl_item_of_node] inverts the source items (all tree nodes) to their
   item index, so matched records map back to output positions. *)
type block_plan = {
  pl_set : bset;
  pl_item_of_node : (int, int) Hashtbl.t;
  pl_tuple_nodes : (env * int) list;
  pl_pairings : block_pairing list;
  pl_probed : int;
  pl_skipped : int;
  pl_skipped_bytes : int;
}
(* Static applicability of the block merge join for an Eq join binding
   [var] (header/summary analysis only): both key expressions must
   be value paths rooted at a single variable (the right side at [var],
   the left side at an earlier one), resolving to containers that share
   one source model with [`Eq] support and whose record sequences are
   verified [sorted_run]s. Returns the two sides'
   (container, hops-to-variable) resolutions. *)
let block_join_sides ctx (env : env) ~(var : string) (left_e : Ast.expr)
    (right_e : Ast.expr) : ((Container.t * int) list * (Container.t * int) list) option =
  let side_of e =
    let (root, steps) =
      match e with
      | Ast.Path (Ast.Var v, steps) -> (Some v, steps)
      | Ast.Var v -> (Some v, [])
      | _ -> (None, [])
    in
    match root with
    | None -> None
    | Some v -> (
      match List.assoc_opt v env with
      | None -> None
      | Some b -> Option.map (fun res -> (v, res)) (resolve_value_path ctx b.snodes steps))
  in
  match side_of left_e, side_of right_e with
  | Some (lv, lres), Some (rv, rres) when rv = var && lv <> var ->
    let conts = List.map fst (lres @ rres) in
    if
      codes_replace_values `Eq conts
      && List.for_all (fun (c : Container.t) -> c.Container.sorted_run) conts
    then Some (lres, rres)
    else None
  | _ -> None
(* --- Block-interval merge join (compressed-domain fast path) --- *)

let block_join_plan ctx ~base ~typing_env ~var ~source ~tuples left_e right_e :
    block_plan option =
  let ( let* ) = Option.bind in
  let check c = if c then Some () else None in
  let* () = check (!block_join_enabled && tuples <> []) in
  let* lres, rres = block_join_sides ctx typing_env ~var left_e right_e in
  (* the left side's root variable, needed to map tuples to probe nodes *)
  let* lv = match left_e with Ast.Path (Ast.Var v, _) | Ast.Var v -> Some v | _ -> None in
  let items = materialize ctx source in
  let item_of_node = Hashtbl.create 256 in
  let nodes_ok = ref true in
  List.iteri
    (fun i it ->
      match it with
      | Node id when not (Hashtbl.mem item_of_node id) -> Hashtbl.add item_of_node id i
      | _ -> nodes_ok := false)
    items;
  let* () = check !nodes_ok in
  let tuple_node d =
    match List.assoc_opt lv (d @ base) with
    | Some { seq = Mat [ Node id ]; _ } -> Some (d, id)
    | _ -> None
  in
  let tuple_nodes = List.filter_map tuple_node tuples in
  let* () = check (List.compare_lengths tuple_nodes tuples = 0) in
  let pairings =
    List.concat_map
      (fun (lc, lhops) ->
        List.map
          (fun (rc, rhops) ->
            {
              bp_lc = lc;
              bp_lhops = lhops;
              bp_rc = rc;
              bp_rhops = rhops;
              bp_est = Cost_model.block_join_estimate (Container.headers lc) (Container.headers rc);
            })
          rres)
      lres
  in
  let ests = List.map (fun p -> p.bp_est) pairings in
  let* () = check (Cost_model.prefer_block_join ests ~tuples:(List.length tuples)) in
  let sum f = List.fold_left (fun a e -> a + f e) 0 ests in
  Some
    {
      pl_set = binding_set items source.snodes;
      pl_item_of_node = item_of_node;
      pl_tuple_nodes = tuple_nodes;
      pl_pairings = pairings;
      pl_probed = sum (fun e -> e.Cost_model.bj_probed_blocks);
      pl_skipped = sum (fun e -> e.Cost_model.bj_skipped_blocks);
      pl_skipped_bytes =
        sum (fun e -> e.Cost_model.bj_left_skipped_bytes + e.Cost_model.bj_right_skipped_bytes);
    }

let block_join_attrs (plan : block_plan) =
  [
    ("blocks_probed", string_of_int plan.pl_probed);
    ("blocks_skipped", string_of_int plan.pl_skipped);
  ]

let exec_block_join ctx ~mode ~var (plan : block_plan) : env list =
  Xquec_obs.Trace.with_span ~name:"executor.block_merge_join"
    ~attrs:
      [
        ("var", var);
        ("blocks_probed", string_of_int plan.pl_probed);
        ("blocks_skipped", string_of_int plan.pl_skipped);
      ]
  @@ fun () ->
  note_block_join ~probed:plan.pl_probed ~skipped:plan.pl_skipped
    ~skipped_bytes:plan.pl_skipped_bytes;
  (* the header-pruned blocks, per container and side *)
  let note_skip (c : Container.t) probe bytes =
    let blocks = Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 probe in
    Container.note_skipped c ~blocks ~bytes
  in
  List.iter
    (fun (p : block_pairing) ->
      let est = p.bp_est in
      note_skip p.bp_lc est.Cost_model.bj_probe_left est.Cost_model.bj_left_skipped_bytes;
      note_skip p.bp_rc est.Cost_model.bj_probe_right est.Cost_model.bj_right_skipped_bytes)
    plan.pl_pairings;
  (* matched left node -> right item indices, with repeats *)
  let matches : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let add_match lnode idx =
    Hashtbl.replace matches lnode (idx :: Option.value ~default:[] (Hashtbl.find_opt matches lnode))
  in
  (* decode the probed blocks of one side, in block order *)
  let fetch_probed cont (probe : bool array) : Buffer_pool.decoded option array =
    Array.mapi
      (fun bi probed -> if probed then Some (Container.fetch_blocks cont ~b0:bi ~b1:bi).(0) else None)
      probe
  in
  List.iter
    (fun (p : block_pairing) ->
      let est = p.bp_est in
      let limg = fetch_probed p.bp_lc est.Cost_model.bj_probe_left in
      let rimg = fetch_probed p.bp_rc est.Cost_model.bj_probe_right in
      List.iter
        (fun (bi, bj) ->
          match limg.(bi), rimg.(bj) with
          | Some dl, Some dr ->
            let lcodes = dl.Buffer_pool.codes and rcodes = dr.Buffer_pool.codes in
            let nl = Array.length lcodes and nr = Array.length rcodes in
            let cmps = ref 0 in
            let i = ref 0 and j = ref 0 in
            while !i < nl && !j < nr do
              incr cmps;
              let c = String.compare lcodes.(!i) rcodes.(!j) in
              if c < 0 then incr i
              else if c > 0 then incr j
              else begin
                let code = lcodes.(!i) in
                let ie = ref (!i + 1) in
                while !ie < nl && String.equal lcodes.(!ie) code do incr ie done;
                let je = ref (!j + 1) in
                while !je < nr && String.equal rcodes.(!je) code do incr je done;
                (* right item indices of the equal run, then the cross
                   product against the run's left records *)
                let ridx = ref [] in
                for y = !je - 1 downto !j do
                  let rnode =
                    record_owner ctx p.bp_rc ~hops:p.bp_rhops dr.Buffer_pool.parents.(y)
                  in
                  match Hashtbl.find_opt plan.pl_item_of_node rnode with
                  | Some idx -> ridx := idx :: !ridx
                  | None -> ()
                done;
                if !ridx <> [] then
                  for x = !i to !ie - 1 do
                    let lnode =
                      record_owner ctx p.bp_lc ~hops:p.bp_lhops dl.Buffer_pool.parents.(x)
                    in
                    List.iter (fun idx -> add_match lnode idx) !ridx
                  done;
                i := !ie;
                j := !je
              end
            done;
            note_cmp ctx ~compressed:true !cmps
          | _ -> assert false)
        est.Cost_model.bj_pairs)
    plan.pl_pairings;
  let out =
    List.concat_map
      (fun (d, lnode) ->
        match Hashtbl.find_opt matches lnode with
        | None -> []
        | Some idxs ->
          List.map (fun idx -> (var, member plan.pl_set idx) :: d) (List.sort_uniq compare idxs))
      plan.pl_tuple_nodes
  in
  note_join mode ~candidates:(Hashtbl.length plan.pl_item_of_node) ~matches:(List.length out);
  out
