(* Per-container / per-block access heat. See heat.mli for the
   contract; the implementation notes here are about why each piece is
   safe lock-free.

   The registry is an array of [entry option Atomic.t] cells indexed
   by pool uid (uids are small sequential ints from
   [Buffer_pool.fresh_uid]), published through one [Atomic.t].
   Registration CASes its own cell from [None]; growth CAS-publishes a
   larger outer array that *shares* the existing cells, so a
   registration racing a grow lands in a cell both arrays see and is
   never lost, and registering N containers stays O(N) overall. The
   hot path is two plain atomic loads, a bounds check and an array
   load — [note_touch] runs once per record access, so lookup cost
   matters more than registration cost.

   Per-block tallies live in a growable [int Atomic.t array] published
   the same way: growth allocates a larger array that *shares* the old
   cells, so a bump racing a grow lands in a cell both arrays see and
   is never lost.

   Sequential-run detection needs "what block did I touch last?",
   which is inherently per-thread state: it lives in a fixed array of
   slots indexed by [Domain.self () land mask]. Each slot has a single
   writer (its domain) under OCaml's per-location atomicity for
   immediate ints, so plain mutable fields suffice; two domains
   hashing to one slot merely misclassify an occasional touch. *)

type entry = {
  e_uid : int;
  mutable e_label : string;
  mutable e_blocks : int;
  e_touches : int Atomic.t;
  e_decodes : int Atomic.t;
  e_skip_blocks : int Atomic.t;
  e_bytes_decoded : int Atomic.t;
  e_bytes_skipped : int Atomic.t;
  e_runs : int Atomic.t;
  e_block_touches : int Atomic.t array Atomic.t;
}

let table : entry option Atomic.t array Atomic.t = Atomic.make [||]
let switch = Atomic.make true
let enabled () = Atomic.get switch
let set_enabled b = Atomic.set switch b

(* ---- per-domain run-detection slots ---- *)

type slot = { mutable s_uid : int; mutable s_blk : int }

let slot_mask = 127
let slots = Array.init (slot_mask + 1) (fun _ -> { s_uid = -1; s_blk = -1 })

let my_slot () =
  let d : int = (Domain.self () :> int) in
  slots.(d land slot_mask)

(* ---- registry ---- *)

let fresh_entry uid label blocks =
  {
    e_uid = uid;
    e_label = label;
    e_blocks = blocks;
    e_touches = Atomic.make 0;
    e_decodes = Atomic.make 0;
    e_skip_blocks = Atomic.make 0;
    e_bytes_decoded = Atomic.make 0;
    e_bytes_skipped = Atomic.make 0;
    e_runs = Atomic.make 0;
    e_block_touches = Atomic.make [||];
  }

let rec intern uid label blocks =
  if uid < 0 then () (* uids are never negative *)
  else begin
    let arr = Atomic.get table in
    let n = Array.length arr in
    if uid < n then begin
      let cell = arr.(uid) in
      match Atomic.get cell with
      | Some e ->
        (* benign data race: label/blocks are registration metadata,
           written on build/load paths, not by decode workers *)
        if label <> "" then e.e_label <- label;
        if blocks > 0 then e.e_blocks <- blocks
      | None ->
        if not (Atomic.compare_and_set cell None (Some (fresh_entry uid label blocks))) then
          intern uid label blocks
    end
    else begin
      let arr' =
        Array.init
          (max (uid + 1) (max 16 (2 * n)))
          (fun i -> if i < n then arr.(i) else Atomic.make None)
      in
      ignore (Atomic.compare_and_set table arr arr');
      intern uid label blocks
    end
  end

let register ~uid ~label ~blocks = intern uid label blocks

let find uid =
  let arr = Atomic.get table in
  if uid >= 0 && uid < Array.length arr then Atomic.get arr.(uid) else None

(* A uid is never reused, so a dropped row stays dropped: the hooks
   below ignore uids without a row. *)
let unregister ~uid =
  let arr = Atomic.get table in
  if uid >= 0 && uid < Array.length arr then Atomic.set arr.(uid) None

(* Bump the per-block cell, growing the published array first when the
   block index is beyond it. The grown array shares the old cells, so
   losing the CAS just means someone else grew it — retry resolves. *)
let rec bump_block e blk =
  let arr = Atomic.get e.e_block_touches in
  let n = Array.length arr in
  if blk < n then Atomic.incr arr.(blk)
  else begin
    let n' = max (blk + 1) (max 8 (2 * n)) in
    let bigger = Array.init n' (fun i -> if i < n then arr.(i) else Atomic.make 0) in
    ignore (Atomic.compare_and_set e.e_block_touches arr bigger);
    bump_block e blk
  end

(* ---- hooks ---- *)

(* The steady case — a scan fetching the same block once per record —
   must cost next to nothing, so the collapse gate is one pair of
   plain (unsynchronized) refs: the process-wide last touched
   (uid, blk). Two loads and two compares; even [Domain.self] is too
   expensive here (a C call per record). The gate is racy by design:
   interleaved domains flap it and count a few extra transitions, and
   a worker repeating another worker's last block loses a touch —
   acceptable noise for a heat map. Only block TRANSITIONS pay: one
   bump of the per-block cell (the cells double as the touch counter;
   snapshots sum them), the per-domain run classification, and — for
   non-successor transitions — a run-start bump of [e_runs].
   [e_touches] only counts blockless ([blk < 0]) touches, which never
   collapse. *)
let g_uid = ref (-1)
let g_blk = ref (-1)

let note_touch ~uid ~blk =
  if enabled () && not (blk >= 0 && !g_uid = uid && !g_blk = blk) then
    match find uid with
    | None -> ()
    | Some e ->
      if blk >= 0 then begin
        g_uid := uid;
        g_blk := blk
      end;
      if blk >= 0 then bump_block e blk else Atomic.incr e.e_touches;
      let s = my_slot () in
      if not (s.s_uid = uid && (blk = s.s_blk || blk = s.s_blk + 1)) then begin
        Atomic.incr e.e_runs;
        s.s_uid <- uid
      end;
      s.s_blk <- blk

let note_decode ~uid ~bytes =
  if enabled () then
    match find uid with
    | None -> ()
    | Some e ->
      Atomic.incr e.e_decodes;
      ignore (Atomic.fetch_and_add e.e_bytes_decoded bytes)

let note_skip ~uid ~blocks ~bytes =
  if enabled () then
    match find uid with
    | None -> ()
    | Some e ->
      ignore (Atomic.fetch_and_add e.e_skip_blocks blocks);
      ignore (Atomic.fetch_and_add e.e_bytes_skipped bytes)

(* ---- readers ---- *)

type stat = {
  uid : int;
  label : string;
  blocks : int;
  touches : int;
  decodes : int;
  hits : int;
  header_skips : int;
  bytes_decoded : int;
  bytes_skipped : int;
  seq_touches : int;
  runs : int;
}

let stat_of_entry e =
  let touches =
    Array.fold_left
      (fun acc c -> acc + Atomic.get c)
      (Atomic.get e.e_touches)
      (Atomic.get e.e_block_touches)
  in
  let decodes = Atomic.get e.e_decodes in
  let runs = Atomic.get e.e_runs in
  {
    uid = e.e_uid;
    label = e.e_label;
    blocks = e.e_blocks;
    touches;
    decodes;
    hits = max 0 (touches - decodes);
    header_skips = Atomic.get e.e_skip_blocks;
    bytes_decoded = Atomic.get e.e_bytes_decoded;
    bytes_skipped = Atomic.get e.e_bytes_skipped;
    seq_touches = max 0 (touches - runs);
    runs;
  }

let snapshot () =
  Array.fold_left
    (fun acc cell ->
      match Atomic.get cell with Some e -> stat_of_entry e :: acc | None -> acc)
    [] (Atomic.get table)
  |> List.sort (fun a b ->
         match compare a.label b.label with 0 -> compare a.uid b.uid | c -> c)

let reset () =
  Array.iter
    (fun cell ->
      match Atomic.get cell with
      | None -> ()
      | Some e ->
        Atomic.set e.e_touches 0;
        Atomic.set e.e_decodes 0;
        Atomic.set e.e_skip_blocks 0;
        Atomic.set e.e_bytes_decoded 0;
        Atomic.set e.e_bytes_skipped 0;
        Atomic.set e.e_runs 0;
        Array.iter (fun c -> Atomic.set c 0) (Atomic.get e.e_block_touches))
    (Atomic.get table);
  g_uid := -1;
  g_blk := -1;
  Array.iter
    (fun s ->
      s.s_uid <- -1;
      s.s_blk <- -1)
    slots

let hot_blocks ~uid ~top =
  if top <= 0 then []
  else
    let arr = Atomic.get table in
    match
      if uid >= 0 && uid < Array.length arr then Atomic.get arr.(uid) else None
    with
    | None -> []
    | Some e ->
      let arr = Atomic.get e.e_block_touches in
      let cells = Array.to_list (Array.mapi (fun i c -> (i, Atomic.get c)) arr) in
      List.filter (fun (_, n) -> n > 0) cells
      |> List.sort (fun (i1, n1) (i2, n2) ->
             match compare n2 n1 with 0 -> compare i1 i2 | c -> c)
      |> List.filteri (fun i _ -> i < top)

let snapshot_json ?(top_blocks = 8) () =
  let container st =
    let hot =
      hot_blocks ~uid:st.uid ~top:top_blocks
      |> List.map (fun (b, n) ->
             Json.Obj [ ("block", Json.Num (float_of_int b)); ("touches", Json.Num (float_of_int n)) ])
    in
    Json.Obj
      ([
         ("container", Json.Str st.label);
         ("uid", Json.Num (float_of_int st.uid));
         ("blocks", Json.Num (float_of_int st.blocks));
         ("touches", Json.Num (float_of_int st.touches));
         ("decodes", Json.Num (float_of_int st.decodes));
         ("hits", Json.Num (float_of_int st.hits));
         ("header_skips", Json.Num (float_of_int st.header_skips));
         ("bytes_decoded", Json.Num (float_of_int st.bytes_decoded));
         ("bytes_skipped", Json.Num (float_of_int st.bytes_skipped));
         ("seq_touches", Json.Num (float_of_int st.seq_touches));
         ("runs", Json.Num (float_of_int st.runs));
       ]
      @ if top_blocks > 0 then [ ("hot_blocks", Json.List hot) ] else [])
  in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled ()));
      ("containers", Json.List (List.map container (snapshot ())));
    ]

let publish_metrics () =
  let stats = snapshot () in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 stats in
  Metrics.set_counter "heat.containers" (List.length stats);
  Metrics.set_counter "heat.touches" (sum (fun s -> s.touches));
  Metrics.set_counter "heat.decodes" (sum (fun s -> s.decodes));
  Metrics.set_counter "heat.hits" (sum (fun s -> s.hits));
  Metrics.set_counter "heat.header_skips" (sum (fun s -> s.header_skips));
  Metrics.set_counter "heat.bytes_decoded" (sum (fun s -> s.bytes_decoded));
  Metrics.set_counter "heat.bytes_skipped" (sum (fun s -> s.bytes_skipped));
  Metrics.set_counter "heat.seq_touches" (sum (fun s -> s.seq_touches));
  Metrics.set_counter "heat.runs" (sum (fun s -> s.runs))
