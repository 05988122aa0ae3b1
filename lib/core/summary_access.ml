(* StructureSummaryAccess (§4, §2.3): paths resolve against the
   structure summary, and a path rooted at a FOR variable evaluates once
   for all of its bindings, by a pre-order interval merge against the
   summary's id lists (the paper's structural join, Fig. 5). *)

open Storage
open Xquery
open Exec_base

(* ------------------------------------------------------------------ *)
(* Summary-level step matching                                         *)
(* ------------------------------------------------------------------ *)

let summary_step ctx (st : Ast.step) : Summary.step option =
  match st.Ast.axis, st.Ast.test with
  | Ast.Child, Ast.Name n -> Option.map (fun c -> `Child c) (tag_code ctx n)
  | Ast.Child, Ast.Any -> Some `Child_any
  | Ast.Descendant, Ast.Name n -> Option.map (fun c -> `Desc c) (tag_code ctx n)
  | Ast.Descendant, Ast.Any -> Some `Desc_any
  | Ast.Attribute, Ast.Name n -> Option.map (fun c -> `Child c) (tag_code ctx ("@" ^ n))
  | Ast.Attribute, (Ast.Any | Ast.Text) | (Ast.Child | Ast.Descendant), Ast.Text -> None

let advance_snodes ctx (snodes : Summary.node list) (st : Ast.step) : Summary.node list =
  match summary_step ctx st with
  | None -> []
  | Some sstep -> Summary.step_from ~is_attr:(is_attr_code ctx) snodes sstep

let rec static_snodes ctx (env : env) (e : Ast.expr) : Summary.node list =
  match e with
  | Ast.Doc _ -> [ ctx.repo.Repository.summary.Summary.root ]
  | Ast.Var v -> (match List.assoc_opt v env with Some b -> b.snodes | None -> [])
  | Ast.Context -> (match List.assoc_opt "." env with Some b -> b.snodes | None -> [])
  | Ast.Path (src, steps) ->
    List.fold_left
      (fun sn (st : Ast.step) ->
        match st.Ast.test with Ast.Text -> sn | _ -> advance_snodes ctx sn st)
      (static_snodes ctx env src) steps
  | Ast.Distinct_values e -> static_snodes ctx env e
  | _ -> []

let mem_sorted (arr : int array) (x : int) : bool =
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) = x then found := true
    else if arr.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Set-at-a-time paths                                                 *)
(* ------------------------------------------------------------------ *)

(* The paper evaluates [for $v in P ... $v/R] with one summary access
   and a structural join (§4, Fig. 5) rather than by navigating R from
   every binding. A path rooted at a variable whose binding carries a
   position in a binding set is evaluated once for the whole set, here,
   and every tuple takes its run. R qualifies when it is child name
   steps, each with at most one positional predicate, optionally ending
   in text() or @name; anything else (descendant steps, conditional
   predicates, constructed elements, the document node) stays on the
   per-tuple path. *)
let batchable (steps : Ast.step list) : bool =
  let rec go = function
    | [] -> true
    | { Ast.axis = Ast.Child; test = Ast.Name _; predicates = [] | [ Ast.Pos_last ] } :: rest ->
      go rest
    | { Ast.axis = Ast.Child; test = Ast.Name _; predicates = [ Ast.Pos n ] } :: rest ->
      n >= 1 && go rest
    | [ { Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } ]
    | [ { Ast.axis = Ast.Attribute; test = Ast.Name _; predicates = [] } ] ->
      true
    | _ -> false
  in
  steps <> [] && go steps

(* First index [k >= lo] of the sorted [a] with [a.(k) > x] (the length
   when none), galloping forward from [lo]: logarithmic in the distance
   moved, so a merge costs in proportion to its bindings, not to the
   id lists it searches. *)
let gallop_gt (a : int array) lo x =
  let n = Array.length a in
  if lo >= n || a.(lo) > x then lo
  else begin
    let prev = ref lo and step = ref 1 in
    while !prev + !step < n && a.(!prev + !step) <= x do
      prev := !prev + !step;
      step := 2 * !step
    done;
    let lo = ref (!prev + 1) and hi = ref (min (!prev + !step) n) in
    while !lo < !hi do
      let m = (!lo + !hi) / 2 in
      if a.(m) <= x then lo := m + 1 else hi := m
    done;
    !lo
  end

(* Sort a set's positions into groups by the summary node their item
   instantiates: [Per_tuple] unless every item is a stored node found
   among the set's summary nodes. *)
let group_set ctx (bs : bset) : groups =
  let tree = ctx.repo.Repository.tree in
  let snodes =
    Array.of_list (List.filter (fun (sn : Summary.node) -> sn.Summary.tag >= 0) bs.bs_snodes)
  in
  let ns = Array.length snodes in
  let holds g id = mem_sorted snodes.(g).Summary.ids id in
  let n = Array.length bs.bs_items in
  let group_of = Array.make n 0 and node_of = Array.make n 0 in
  try
    let last = ref 0 in
    Array.iteri
      (fun p it ->
        match it with
        | Node id when id >= 0 && ns > 0 ->
          if not (holds !last id) then begin
            let tag = Structure_tree.tag tree id in
            let rec find g =
              if g = ns then raise Exit
              else if snodes.(g).Summary.tag = tag && holds g id then g
              else find (g + 1)
            in
            last := find 0
          end;
          group_of.(p) <- !last;
          node_of.(p) <- id
        | _ -> raise Exit)
      bs.bs_items;
    let slot_of = Array.make n 0 in
    let base = ref 0 in
    let groups =
      List.filter_map
        (fun g ->
          let nodes = ref [] in
          for p = n - 1 downto 0 do
            if group_of.(p) = g then nodes := node_of.(p) :: !nodes
          done;
          match !nodes with
          | [] -> None
          | l ->
            let g_nodes = Array.of_list (List.sort_uniq Int.compare l) in
            let g_base = !base in
            for p = 0 to n - 1 do
              (* the rank of the position's node among the group's nodes *)
              if group_of.(p) = g then slot_of.(p) <- g_base + gallop_gt g_nodes 0 (node_of.(p) - 1)
            done;
            base := g_base + Array.length g_nodes;
            Some { g_snode = snodes.(g); g_base; g_nodes })
        (List.init ns Fun.id)
    in
    Grouped { slot_of; groups }
  with Exit -> Per_tuple

(* The ids of the sorted [a] within [lo, hi], in order. *)
let ids_between (a : int array) lo hi : int list =
  let k0 = gallop_gt a 0 (lo - 1) in
  Array.to_list (Array.sub a k0 (gallop_gt a k0 hi - k0))

(* One child step for a whole frontier: [cur] holds instances of one
   summary node in document order, [own] their slots; [ids] the
   instances of the child summary node. Node [d] is a child of [b]
   exactly when [b < d <= last_descendant b], so each frontier node's
   children are one contiguous run of [ids], found by galloping. [pos]
   keeps the [pos]-th child of each run (0: all of them, -1: the last),
   as a positional predicate does per context node. *)
let merge_children tree ~(cur : int array) ~(own : int array) (ids : int array) ~pos :
    int array * int array =
  let m = Array.length cur in
  let k0s = Array.make m 0 and k1s = Array.make m 0 in
  let j = ref 0 and total = ref 0 in
  for i = 0 to m - 1 do
    let b = cur.(i) in
    let k0 = gallop_gt ids !j b in
    let k1 = gallop_gt ids k0 (Structure_tree.last_descendant tree b) in
    j := k1;
    let k0, k1 =
      if pos = 0 then (k0, k1)
      else if pos < 0 then if k1 > k0 then (k1 - 1, k1) else (k0, k0)
      else if k1 - k0 >= pos then (k0 + pos - 1, k0 + pos)
      else (k0, k0)
    in
    k0s.(i) <- k0;
    k1s.(i) <- k1;
    total := !total + (k1 - k0)
  done;
  let next = Array.make !total 0 and next_own = Array.make !total 0 in
  let o = ref 0 in
  for i = 0 to m - 1 do
    for k = k0s.(i) to k1s.(i) - 1 do
      next.(!o) <- ids.(k);
      next_own.(!o) <- own.(i);
      incr o
    done
  done;
  (next, next_own)

(* Evaluate [R] for every slot of a grouped set. Returns the batch, the
   summary estimate of its rows (instance counts along R, scaled by the
   share of each summary node the set binds) and the block fetches. *)
let compute_batch ctx ~(slot_of : int array) (groups : group list) (steps : Ast.step list) :
    batch * int * int =
  let tree = ctx.repo.Repository.tree in
  let nslots = List.fold_left (fun acc g -> acc + Array.length g.g_nodes) 0 groups in
  let runs = Array.make nslots [] in
  let read, fetches = Value_access.block_reader ctx in
  let est = ref 0.0 in
  let finals = ref [] in
  let ends_at_nodes = ref true in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  List.iter
    (fun g ->
      let cur = ref g.g_nodes and own = ref (Array.init (Array.length g.g_nodes) (( + ) g.g_base)) in
      let sn = ref (Some g.g_snode) in
      let e = ref (float_of_int (Array.length g.g_nodes)) in
      let advance code ~pos =
        match Option.bind code (fun c -> Option.bind !sn (fun s -> Summary.find_child s c)) with
        | Some next ->
          let from = Array.length (Option.get !sn).Summary.ids in
          let e' = !e *. ratio (Array.length next.Summary.ids) from in
          e := if pos = 0 then e' else Float.min e' !e;
          let c, o = merge_children tree ~cur:!cur ~own:!own next.Summary.ids ~pos in
          cur := c;
          own := o;
          sn := Some next
        | None ->
          cur := [||];
          own := [||];
          sn := None;
          e := 0.0
      in
      (* [emit i items]: the items frontier node [i] contributes, in order *)
      let collect (emit : int -> item list) =
        for i = Array.length !cur - 1 downto 0 do
          let s = !own.(i) in
          runs.(s) <- emit i @ runs.(s)
        done
      in
      let rec walk = function
        | [] ->
          collect (fun i -> [ Node !cur.(i) ]);
          Option.iter (fun s -> finals := s :: !finals) !sn
        | { Ast.axis = Ast.Child; test = Ast.Name n; predicates } :: rest ->
          let pos = match predicates with [ Ast.Pos k ] -> k | [ Ast.Pos_last ] -> -1 | _ -> 0 in
          advance (tag_code ctx n) ~pos;
          walk rest
        | [ { Ast.axis = Ast.Child; test = Ast.Text; _ } ] ->
          ends_at_nodes := false;
          (match !sn with
          | Some s ->
            let values =
              match s.Summary.text_container with
              | Some cid -> Container.length (container ctx cid)
              | None -> 0
            in
            e := !e *. ratio values (Array.length s.Summary.ids)
          | None -> ());
          let vals = Array.map (Structure_tree.value_pointers tree) !cur in
          let items = Array.map (Array.map read) vals in
          collect (fun i -> Array.to_list items.(i))
        | [ { Ast.axis = Ast.Attribute; test = Ast.Name n; _ } ] ->
          ends_at_nodes := false;
          advance (tag_code ctx ("@" ^ n)) ~pos:0;
          let items =
            Array.map
              (fun a ->
                match Structure_tree.value_pointers tree a with
                | [||] -> []
                | v -> [ Att (n, read v.(0)) ])
              !cur
          in
          collect (fun i -> items.(i))
        | _ -> invalid_arg "compute_batch: path is not batchable"
      in
      walk steps;
      est := !est +. !e)
    groups;
  let starts = Array.make nslots 0 in
  let total = ref 0 in
  Array.iteri
    (fun s run ->
      starts.(s) <- !total;
      total := !total + List.length run)
    runs;
  let union =
    if !ends_at_nodes then
      Some (binding_set (List.concat (Array.to_list runs)) (List.rev !finals))
    else None
  in
  ( { b_slot_of = slot_of; b_runs = runs; b_starts = starts; b_union = union },
    int_of_float (Float.round !est),
    !fetches )

let set_batch ctx ~var (bs : bset) (steps : Ast.step list) : batch option =
  match List.assq_opt steps bs.bs_memo with
  | Some b -> Some b
  | None -> (
    if bs.bs_groups = Unexamined then bs.bs_groups <- group_set ctx bs;
    match bs.bs_groups with
    | Unexamined | Per_tuple -> None
    | Grouped { slot_of; groups } ->
      let b, _, _ =
        prof_rows ctx ~once:true ~kind:"batched_path"
          (fun () -> "batched path " ^ Ast.to_string (Ast.Path (Ast.Var var, steps)))
          ~rows:(fun (b, _, _) -> Array.fold_left (fun acc r -> acc + List.length r) 0 b.b_runs)
          ~attrs:(fun (_, est, fetches) ->
            [
              ("bindings", string_of_int (Array.length bs.bs_items));
              ("est_rows", string_of_int est);
              ("fetches", string_of_int fetches);
            ])
          (fun () -> compute_batch ctx ~slot_of groups steps)
      in
      bs.bs_memo <- (steps, b) :: bs.bs_memo;
      Some b)
