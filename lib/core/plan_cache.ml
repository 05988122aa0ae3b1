(* Process-wide LRU cache of compiled query plans, keyed by the MD5
   hex of the query text — the same hash the query log records, so a
   log line's query_hash doubles as the cache key for that query.

   A "compiled plan" in this engine is the parsed, immutable
   Xquery.Ast.expr (there is no separate optimize-time artifact: the
   optimizer runs inside the executor against live container stats).
   ASTs are pure immutable data, so a cached plan is safely shared
   across worker domains evaluating the same query concurrently.

   Everything below one mutex: entry count is small (default capacity
   128) and a hit costs a hash lookup plus two list splices, orders of
   magnitude below parsing. LRU is the classic Hashtbl + intrusive
   doubly-linked list: most-recent at the head, evict from the tail.

   Invalidation: keys are query text only, NOT the repository — the
   engine parses a query identically whichever repository it runs
   against, so switching repositories does not require clearing the
   cache. [clear] exists for tests and for a future mutable-repository
   world (see docs/SERVING.md). *)

type lookup = Hit | Miss | Bypass

type node = {
  n_key : string;
  n_plan : Xquery.Ast.expr;
  mutable n_prev : node option;
  mutable n_next : node option;
}

type cache = {
  mutable capacity : int;  (* 0 = disabled *)
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let cache =
  { capacity = 0; tbl = Hashtbl.create 64; head = None; tail = None;
    hits = 0; misses = 0; evictions = 0 }

let mutex = Mutex.create ()

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* --- intrusive list maintenance (call with the lock held) ------------- *)

let unlink (n : node) : unit =
  (match n.n_prev with
  | Some p -> p.n_next <- n.n_next
  | None -> cache.head <- n.n_next);
  (match n.n_next with
  | Some s -> s.n_prev <- n.n_prev
  | None -> cache.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front (n : node) : unit =
  n.n_prev <- None;
  n.n_next <- cache.head;
  (match cache.head with Some h -> h.n_prev <- Some n | None -> cache.tail <- Some n);
  cache.head <- Some n

let evict_tail () : unit =
  match cache.tail with
  | None -> ()
  | Some n ->
    unlink n;
    Hashtbl.remove cache.tbl n.n_key;
    cache.evictions <- cache.evictions + 1

let clear_locked () =
  Hashtbl.reset cache.tbl;
  cache.head <- None;
  cache.tail <- None

(* --- public API ------------------------------------------------------- *)

let set_capacity (n : int) : unit =
  with_lock (fun () ->
      cache.capacity <- max 0 n;
      if cache.capacity = 0 then clear_locked ()
      else
        while Hashtbl.length cache.tbl > cache.capacity do
          evict_tail ()
        done)

let clear () : unit = with_lock clear_locked

let reset_stats () : unit =
  with_lock (fun () ->
      cache.hits <- 0;
      cache.misses <- 0;
      cache.evictions <- 0)

let find_or_add ~(key : string) (compile : unit -> Xquery.Ast.expr) :
    Xquery.Ast.expr * lookup =
  let cached =
    with_lock (fun () ->
        if cache.capacity = 0 then Some (None, Bypass)
        else
          match Hashtbl.find_opt cache.tbl key with
          | Some n ->
            unlink n;
            push_front n;
            cache.hits <- cache.hits + 1;
            Some (Some n.n_plan, Hit)
          | None ->
            cache.misses <- cache.misses + 1;
            None)
  in
  match cached with
  | Some (Some plan, l) -> (plan, l)
  | Some (None, l) -> (compile (), l)
  | None ->
    (* Miss: compile OUTSIDE the lock (parsing an adversarial query must
       not stall every other worker's cache lookups), then insert. A
       concurrent compile of the same query inserts twice; last one
       wins, both plans are equivalent, and the duplicate node is
       unlinked before re-insertion. *)
    let plan = compile () in
    with_lock (fun () ->
        if cache.capacity > 0 then begin
          (match Hashtbl.find_opt cache.tbl key with
          | Some old -> unlink old; Hashtbl.remove cache.tbl old.n_key
          | None -> ());
          let n = { n_key = key; n_plan = plan; n_prev = None; n_next = None } in
          push_front n;
          Hashtbl.replace cache.tbl key n;
          while Hashtbl.length cache.tbl > cache.capacity do
            evict_tail ()
          done
        end);
    (plan, Miss)

type stats = {
  s_capacity : int;
  s_entries : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

let snapshot () : stats =
  with_lock (fun () ->
      {
        s_capacity = cache.capacity;
        s_entries = Hashtbl.length cache.tbl;
        s_hits = cache.hits;
        s_misses = cache.misses;
        s_evictions = cache.evictions;
      })
