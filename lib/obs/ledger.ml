(* Per-query cost ledger and the process totals. See ledger.mli.

   A ledger is only ever written by the domain whose DLS holds it: the
   query's own evaluation and serialization, block decodes included,
   run on that domain. So every charge is a plain field write. The
   totals are one more ledger, behind one mutex that also guards the
   rows containers own: a closed ledger is added into them, and a
   charge made with no ledger open goes to them directly. *)

type trip = { t_kind : string; t_limit : float; t_observed : float }

exception Exceeded of trip

type obs = { ob_container : string; ob_kind : string; ob_candidates : int; ob_matches : int }

type container = {
  c_uid : int;
  c_label : string;
  c_blocks : int;
  mutable c_touches : int;
  mutable c_runs : int;
  mutable c_block_touches : int array;
  mutable c_decodes : int;
  mutable c_header_skips : int;
  mutable c_bytes_decoded : int;
  mutable c_bytes_skipped : int;
}

type t = {
  started_us : float;
  wall_limit_ms : float;
  decode_limit : int;
  mutable hits : int;
  mutable misses : int;
  mutable latch_waits : int;
  mutable evictions : int;
  mutable blocks_skipped : int;
  mutable scan_inserts : int;
  mutable decoded_bytes : int;
  mutable payload_decoded : int;
  mutable payload_skipped : int;
  mutable block_joins : int;
  mutable join_blocks_probed : int;
  mutable join_blocks_skipped : int;
  mutable join_skipped_bytes : int;
  mutable last_uid : int;
  mutable last_blk : int;
  containers : (int, container * container) Hashtbl.t;
  preds : (string * string, obs) Hashtbl.t;
  mutable pred_order : (string * string) list;
}

type limits = { wall_ms : float; decode_bytes : int }

let unlimited = { wall_ms = 0.0; decode_bytes = 0 }

let per_container = Atomic.make true
let containers_enabled () = Atomic.get per_container
let set_containers_enabled b = Atomic.set per_container b

let now_us () = Unix.gettimeofday () *. 1e6

let create ~wall ~bytes =
  {
    started_us = (if wall > 0.0 then now_us () else 0.0);
    wall_limit_ms = (if wall > 0.0 then wall else infinity);
    decode_limit = (if bytes > 0 then bytes else max_int);
    hits = 0;
    misses = 0;
    latch_waits = 0;
    evictions = 0;
    blocks_skipped = 0;
    scan_inserts = 0;
    decoded_bytes = 0;
    payload_decoded = 0;
    payload_skipped = 0;
    block_joins = 0;
    join_blocks_probed = 0;
    join_blocks_skipped = 0;
    join_skipped_bytes = 0;
    last_uid = -1;
    last_blk = -1;
    containers = Hashtbl.create 8;
    preds = Hashtbl.create 4;
    pred_order = [];
  }

let row ~uid ~label ~blocks =
  {
    c_uid = uid;
    c_label = label;
    c_blocks = blocks;
    c_touches = 0;
    c_runs = 0;
    c_block_touches = [||];
    c_decodes = 0;
    c_header_skips = 0;
    c_bytes_decoded = 0;
    c_bytes_skipped = 0;
  }

let bump_block c blk n =
  let len = Array.length c.c_block_touches in
  if blk >= len then begin
    let a = Array.make (max (blk + 1) (2 * len)) 0 in
    Array.blit c.c_block_touches 0 a 0 len;
    c.c_block_touches <- a
  end;
  c.c_block_touches.(blk) <- c.c_block_touches.(blk) + n

(* ---- the process totals ---- *)

let totals = create ~wall:0.0 ~bytes:0
let totals_mutex = Mutex.create ()

let with_totals f = Mutex.protect totals_mutex (fun () -> f totals)

let add_into (t : t) (l : t) =
  t.hits <- t.hits + l.hits;
  t.misses <- t.misses + l.misses;
  t.latch_waits <- t.latch_waits + l.latch_waits;
  t.evictions <- t.evictions + l.evictions;
  t.blocks_skipped <- t.blocks_skipped + l.blocks_skipped;
  t.scan_inserts <- t.scan_inserts + l.scan_inserts;
  t.decoded_bytes <- t.decoded_bytes + l.decoded_bytes;
  t.payload_decoded <- t.payload_decoded + l.payload_decoded;
  t.payload_skipped <- t.payload_skipped + l.payload_skipped;
  t.block_joins <- t.block_joins + l.block_joins;
  t.join_blocks_probed <- t.join_blocks_probed + l.join_blocks_probed;
  t.join_blocks_skipped <- t.join_blocks_skipped + l.join_blocks_skipped;
  t.join_skipped_bytes <- t.join_skipped_bytes + l.join_skipped_bytes;
  Hashtbl.iter
    (fun _ (home, c) ->
      home.c_touches <- home.c_touches + c.c_touches;
      home.c_runs <- home.c_runs + c.c_runs;
      home.c_decodes <- home.c_decodes + c.c_decodes;
      home.c_header_skips <- home.c_header_skips + c.c_header_skips;
      home.c_bytes_decoded <- home.c_bytes_decoded + c.c_bytes_decoded;
      home.c_bytes_skipped <- home.c_bytes_skipped + c.c_bytes_skipped;
      Array.iteri (fun blk n -> if n > 0 then bump_block home blk n) c.c_block_touches)
    l.containers

(* ---- open ledgers ---- *)

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let with_ledger ?(limits = unlimited) f =
  let l = create ~wall:limits.wall_ms ~bytes:limits.decode_bytes in
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some l);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set key prev;
      with_totals (fun t -> add_into t l))
    (fun () -> f l)

let check l =
  if l.decoded_bytes > l.decode_limit then
    raise
      (Exceeded
         {
           t_kind = "decode_bytes";
           t_limit = float_of_int l.decode_limit;
           t_observed = float_of_int l.decoded_bytes;
         });
  if l.wall_limit_ms < infinity then begin
    let elapsed = (now_us () -. l.started_us) /. 1000.0 in
    if elapsed > l.wall_limit_ms then
      raise (Exceeded { t_kind = "wall_ms"; t_limit = l.wall_limit_ms; t_observed = elapsed })
  end

(* ---- charges ---- *)

let charge f = match current () with Some l -> f l | None -> with_totals f

(* Where [l]'s charge to [home] lands: the totals charge it directly. *)
let row_in l home =
  if l == totals then home
  else
    match Hashtbl.find_opt l.containers home.c_uid with
    | Some (_, c) -> c
    | None ->
      let c = row ~uid:home.c_uid ~label:home.c_label ~blocks:home.c_blocks in
      Hashtbl.add l.containers home.c_uid (home, c);
      c

(* A touch that does not repeat the previous one; it starts a run
   unless it moves to the next block of the same container. *)
let touch l home ~blk =
  if containers_enabled () && not (l.last_uid = home.c_uid && l.last_blk = blk) then begin
    let c = row_in l home in
    if not (l.last_uid = home.c_uid && blk = l.last_blk + 1) then c.c_runs <- c.c_runs + 1;
    l.last_uid <- home.c_uid;
    l.last_blk <- blk;
    c.c_touches <- c.c_touches + 1;
    if blk >= 0 then bump_block c blk 1
  end

let note_fetch home ~blk =
  match current () with
  | Some l ->
    check l;
    touch l home ~blk
  | None -> with_totals (fun t -> touch t home ~blk)

let note_decode home ~bytes =
  charge (fun l ->
      l.payload_decoded <- l.payload_decoded + bytes;
      if containers_enabled () then begin
        let c = row_in l home in
        c.c_decodes <- c.c_decodes + 1;
        c.c_bytes_decoded <- c.c_bytes_decoded + bytes
      end)

let note_skip home ~blocks ~bytes =
  if blocks > 0 then
    charge (fun l ->
        l.blocks_skipped <- l.blocks_skipped + blocks;
        l.payload_skipped <- l.payload_skipped + bytes;
        if containers_enabled () then begin
          let c = row_in l home in
          c.c_header_skips <- c.c_header_skips + blocks;
          c.c_bytes_skipped <- c.c_bytes_skipped + bytes
        end)

(* Merged by (container, kind): per-tuple notes (one per FLWOR tuple)
   would otherwise contribute thousands of entries, and the
   fingerprint only needs the sums. *)
let note_pred ~container ~kind ~candidates ~matches =
  match current () with
  | None -> ()
  | Some l -> (
    let k = (container, kind) in
    match Hashtbl.find_opt l.preds k with
    | Some o ->
      Hashtbl.replace l.preds k
        { o with ob_candidates = o.ob_candidates + candidates; ob_matches = o.ob_matches + matches }
    | None ->
      Hashtbl.add l.preds k
        { ob_container = container; ob_kind = kind; ob_candidates = candidates; ob_matches = matches };
      l.pred_order <- k :: l.pred_order)

(* ---- readings ---- *)

let containers l =
  Hashtbl.fold
    (fun _ (_, c) acc ->
      if c.c_touches > 0 || c.c_header_skips > 0 || c.c_bytes_decoded > 0 then c :: acc
      else acc)
    l.containers []
  |> List.sort (fun a b ->
         match compare a.c_label b.c_label with 0 -> compare a.c_uid b.c_uid | c -> c)

let predicates l = List.rev_map (Hashtbl.find l.preds) l.pred_order
