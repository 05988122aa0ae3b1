(* Process-wide buffer pool: an LRU cache of decoded container blocks
   with a byte budget, shared by every container in every open
   repository. Containers decode at most the blocks a predicate
   touches (demand paging); repeated access to the same blocks — warm
   joins, repeated queries — hits here instead of re-decoding.

   THREAD SAFETY (see docs/CONCURRENCY.md). The pool is shared by every
   domain that evaluates queries (serve's worker domains):

   - one process-wide [lock] guards the hash table, the LRU list and
     the resident-size accounting. It is a leaf lock: decode thunks
     run OUTSIDE it.
   - an in-flight decode is a [Pending] latch in the table. A second
     requester of the same block finds the latch and blocks on it
     instead of decoding again (counted as [s_latch_waits]); the
     decoder installs the finished block and broadcasts. Every fetch
     is therefore exactly one of: hit, miss (this caller decoded) or
     latch wait. With one evaluating domain waits are structurally
     impossible.
   - the pool counts nothing itself (apart from invalidations, which
     happen outside any query): each hit, miss, latch wait, eviction,
     scan insert and decoded byte is charged once, to the calling
     domain's open Xquec_obs.Ledger, or to the process totals when no
     ledger is open. [snapshot] reads the totals, which a query's
     ledger joins when it closes.

   Entries are keyed by (container uid, block index). The uid is
   process-unique (two repositories never collide) and a container is
   never changed after it is built: a rebuild is a fresh container with
   a fresh uid, so an entry can never be returned for the wrong
   payload. [invalidate_container] drops a replaced container's entries
   eagerly so they stop occupying budget.

   The ledger is what the query log and EXPLAIN read; the
   "bufferpool.*" metric series are copied from [snapshot] when they
   are read (Serve.publish_storage_metrics), not counted a second time. *)

type key = { k_uid : int; k_blk : int }

(** A decoded block: parallel arrays of still-compressed codes and
    parent ids, plus the byte charge this entry puts on the budget. *)
type decoded = { codes : string array; parents : int array; d_bytes : int }

(* intrusive doubly-linked LRU list; [lru_front] is most recent *)
type node = {
  nkey : key;
  value : decoded;
  mutable prev : node option;  (* towards the front (more recent) *)
  mutable next : node option;  (* towards the back (less recent) *)
}

(* A latch for an in-flight decode. Lifecycle: created under the pool
   lock in state [L_decoding]; the decoding domain completes it to
   [L_done] (after installing the block) or [L_failed] and broadcasts;
   waiters block on [l_cond] until the state leaves [L_decoding]. *)
type latch = {
  l_mutex : Mutex.t;
  l_cond : Condition.t;
  mutable l_state : latch_state;
}

and latch_state = L_decoding | L_done of decoded | L_failed of exn

type entry = Resident of node | Pending of latch

(* Where a freshly decoded block enters the LRU list. [Mru] (the
   default) is classic LRU insertion at the front. [Tail] is the
   scan-resistant policy: sequential scans insert at the back, so a
   one-pass scan of a huge container churns only the cold end of the
   list and cannot flush the hot working set; a block that IS
   re-referenced gets promoted to the front by the hit path's [touch]
   like any other entry. *)
type admission = Mru | Tail

let lock = Mutex.create ()

let table : (key, entry) Hashtbl.t = Hashtbl.create 1024

let lru_front : node option ref = ref None

let lru_back : node option ref = ref None

let default_budget_bytes = 64 * 1024 * 1024

let budget_ref = ref default_budget_bytes

(* Invalidation drops are accounted separately from [evictions]:
   evictions measure capacity pressure, invalidations measure container
   churn (containers replaced by a rebuild). Mixing them made hit-rate
   alerts misread a swap as thrash. *)
let invalidations = Atomic.make 0

(* resident accounting: guarded by [lock] *)
let resident_bytes = ref 0

let resident_blocks = ref 0

type stats = {
  s_hits : int;
  s_misses : int;
  s_latch_waits : int;
  s_evictions : int;
  s_decoded_bytes : int;
  s_blocks_skipped : int;
  s_scan_inserts : int;
  s_invalidations : int;
  (* Always 0; kept for bench/e2e/layers.ml's buffer_pool.prefetch_* metrics. *)
  s_prefetch_fills : int;
  s_prefetch_hits : int;
  s_payload_bytes : int;
  s_skipped_bytes : int;
  s_resident_bytes : int;
  s_resident_blocks : int;
}

let snapshot () : stats =
  Mutex.lock lock;
  let rb = !resident_bytes and rn = !resident_blocks in
  Mutex.unlock lock;
  Xquec_obs.Ledger.with_totals @@ fun t ->
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_latch_waits = t.latch_waits;
    s_evictions = t.evictions;
    s_decoded_bytes = t.decoded_bytes;
    s_blocks_skipped = t.blocks_skipped;
    s_scan_inserts = t.scan_inserts;
    s_invalidations = Atomic.get invalidations;
    s_prefetch_fills = 0;
    s_prefetch_hits = 0;
    s_payload_bytes = t.payload_decoded;
    s_skipped_bytes = t.payload_skipped;
    s_resident_bytes = rb;
    s_resident_blocks = rn;
  }

let budget_bytes () = !budget_ref

(* --- LRU list surgery (all called with [lock] held) ------------------ *)

let unlink (n : node) : unit =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> lru_front := n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> lru_back := n.prev);
  n.prev <- None;
  n.next <- None

let push_front (n : node) : unit =
  n.next <- !lru_front;
  n.prev <- None;
  (match !lru_front with Some f -> f.prev <- Some n | None -> lru_back := Some n);
  lru_front := Some n

(* Tail insertion for scan admission: the block becomes the next
   eviction victim unless it is re-referenced first. *)
let push_back (n : node) : unit =
  n.prev <- !lru_back;
  n.next <- None;
  (match !lru_back with Some b -> b.next <- Some n | None -> lru_front := Some n);
  lru_back := Some n

let touch (n : node) : unit =
  if !lru_front != Some n then begin
    unlink n;
    push_front n
  end

let drop (n : node) : unit =
  unlink n;
  Hashtbl.remove table n.nkey;
  resident_bytes := !resident_bytes - n.value.d_bytes;
  resident_blocks := !resident_blocks - 1

(* Evict from the back until within budget. [keep] (when given) is never
   evicted, so a single MRU-admitted block larger than the whole budget
   still works (it is simply the only resident block). A tail-admitted
   scan block gets no such protection ([keep = None]): it may evict
   itself immediately, which is exactly what keeps a huge scan from
   displacing anything. Pending latches are not in the LRU list, so an
   in-flight decode can never be evicted. *)
let rec evict_to_budget ~(keep : node option) : unit =
  if !resident_bytes > !budget_ref then begin
    match !lru_back with
    | Some n when (match keep with Some k -> k != n | None -> true) ->
      drop n;
      Xquec_obs.Ledger.charge (fun l -> l.evictions <- l.evictions + 1);
      evict_to_budget ~keep
    | Some _ | None -> ()
  end

(* --- public API ----------------------------------------------------- *)

let set_budget ~(bytes : int) : unit =
  Mutex.lock lock;
  budget_ref := max 0 bytes;
  (* shrink immediately; keep at least the most recent entry *)
  evict_to_budget ~keep:!lru_front;
  Mutex.unlock lock

(* Block on [l] until its decode completes; re-raise its failure. *)
let await_latch (l : latch) : decoded =
  Xquec_obs.Ledger.charge (fun l -> l.latch_waits <- l.latch_waits + 1);
  Mutex.lock l.l_mutex;
  let rec wait () =
    match l.l_state with
    | L_decoding ->
      Condition.wait l.l_cond l.l_mutex;
      wait ()
    | st -> st
  in
  let st = wait () in
  Mutex.unlock l.l_mutex;
  match st with
  | L_done v -> v
  | L_failed e -> raise e
  | L_decoding -> assert false

(* Complete [l] and wake every waiter. *)
let settle_latch (l : latch) (st : latch_state) : unit =
  Mutex.lock l.l_mutex;
  l.l_state <- st;
  Condition.broadcast l.l_cond;
  Mutex.unlock l.l_mutex

let fetch ?(admission = Mru) ~(uid : int) ~(blk : int) (decode : unit -> decoded) : decoded =
  let key = { k_uid = uid; k_blk = blk } in
  Mutex.lock lock;
  match Hashtbl.find_opt table key with
  | Some (Resident n) ->
    touch n;
    Mutex.unlock lock;
    Xquec_obs.Ledger.charge (fun l -> l.hits <- l.hits + 1);
    n.value
  | Some (Pending l) ->
    Mutex.unlock lock;
    await_latch l
  | None ->
    let l = { l_mutex = Mutex.create (); l_cond = Condition.create (); l_state = L_decoding } in
    Hashtbl.replace table key (Pending l);
    Mutex.unlock lock;
    Xquec_obs.Ledger.charge (fun l -> l.misses <- l.misses + 1);
    (match decode () with
    | v ->
      Mutex.lock lock;
      (* Install only if we still own the slot: [invalidate] / [clear]
         may have raced with the decode, in which case the result is
         handed to the waiters but not cached. *)
      (match Hashtbl.find_opt table key with
      | Some (Pending l') when l' == l ->
        let n = { nkey = key; value = v; prev = None; next = None } in
        Hashtbl.replace table key (Resident n);
        resident_bytes := !resident_bytes + v.d_bytes;
        resident_blocks := !resident_blocks + 1;
        (match admission with
        | Mru ->
          push_front n;
          evict_to_budget ~keep:(Some n)
        | Tail ->
          (* Scan admission: enter at the eviction end and get no
             protection from the budget pass — an over-budget scan
             block evicts itself rather than anything hot. *)
          push_back n;
          Xquec_obs.Ledger.charge (fun l -> l.scan_inserts <- l.scan_inserts + 1);
          evict_to_budget ~keep:None)
      | _ -> ());
      Mutex.unlock lock;
      Xquec_obs.Ledger.charge (fun l -> l.decoded_bytes <- l.decoded_bytes + v.d_bytes);
      settle_latch l (L_done v);
      v
    | exception e ->
      Mutex.lock lock;
      (match Hashtbl.find_opt table key with
      | Some (Pending l') when l' == l -> Hashtbl.remove table key
      | _ -> ());
      Mutex.unlock lock;
      settle_latch l (L_failed e);
      raise e)

let invalidate_container ~(uid : int) : int =
  Mutex.lock lock;
  let victims =
    Hashtbl.fold (fun k e acc -> if k.k_uid = uid then (k, e) :: acc else acc) table []
  in
  List.iter
    (fun (k, e) ->
      match e with
      | Resident n -> drop n
      | Pending _ ->
        (* The in-flight decoder's install check will see its latch is
           gone and skip caching; waiters still get the value. *)
        Hashtbl.remove table k)
    victims;
  Mutex.unlock lock;
  let n = List.length victims in
  ignore (Atomic.fetch_and_add invalidations n);
  n

let invalidate ~(uid : int) : unit = ignore (invalidate_container ~uid)

let clear () : unit =
  Mutex.lock lock;
  Hashtbl.reset table;
  lru_front := None;
  lru_back := None;
  resident_bytes := 0;
  resident_blocks := 0;
  Mutex.unlock lock

let reset_stats () : unit =
  Atomic.set invalidations 0;
  Xquec_obs.Ledger.with_totals @@ fun t ->
  t.hits <- 0;
  t.misses <- 0;
  t.latch_waits <- 0;
  t.evictions <- 0;
  t.decoded_bytes <- 0;
  t.blocks_skipped <- 0;
  t.scan_inserts <- 0;
  t.payload_decoded <- 0;
  t.payload_skipped <- 0

(* --- uid allocation -------------------------------------------------- *)

let uid_counter = Atomic.make 0

let fresh_uid () : int = Atomic.fetch_and_add uid_counter 1 + 1
