(* Background container compaction: re-block a live container toward a
   recommended block size and swap it into the repository without
   stopping query traffic.

   The swap protocol is copy-on-write and relies on three facts:

   1. {!Container.reblocked} builds a FRESH container (new pool uid,
      generation 0, epoch+1) holding the same record sequence — the
      original stays fully readable while the rebuild decodes its
      blocks (tail admission, so the rebuild cannot flush the hot set).
   2. [repo.containers.(id) <- fresh] is a single pointer store into a
      boxed-value array. A concurrent reader sees either the old or the
      new container — both answer every query identically (same codes,
      same parents, same order), so response bytes cannot change across
      the swap. Readers that already hold the old container keep using
      it; its blocks stay decodable for as long as the value is
      reachable.
   3. [Buffer_pool.invalidate_container ~uid:old] afterwards releases
      the old blocks' budget share (new lookups can no longer produce
      the old uid, so nothing re-populates them — stragglers holding
      the old container may re-decode, which is correct, just unpaid
      for by the cache).

   Concurrency discipline: one [compact_mutex] serializes compaction
   passes (two concurrent re-blocks of one container would waste work,
   not corrupt — the mutex exists for predictability and for the
   busy-flag the server exposes). [request] runs the pass on the
   caller; serve calls it from its watchdog domain, off the query
   path. *)

type result = {
  c_path : string;
  c_id : int;
  c_records : int;
  c_block_size_before : int;
  c_block_size_after : int;
  c_blocks_before : int;
  c_blocks_after : int;
  c_invalidated : int;
  c_epoch : int;
  c_wall_ms : float;
}

(* --- cumulative stats + a small ring of recent results --------------- *)

let stat_compactions = Atomic.make 0

let stat_blocks_rewritten = Atomic.make 0

let stat_bytes_rewritten = Atomic.make 0

type stats = { k_compactions : int; k_blocks_rewritten : int; k_bytes_rewritten : int }

let snapshot () : stats =
  {
    k_compactions = Atomic.get stat_compactions;
    k_blocks_rewritten = Atomic.get stat_blocks_rewritten;
    k_bytes_rewritten = Atomic.get stat_bytes_rewritten;
  }

let reset_stats () =
  Atomic.set stat_compactions 0;
  Atomic.set stat_blocks_rewritten 0;
  Atomic.set stat_bytes_rewritten 0

let recent_cap = 16

let recent_mutex = Mutex.create ()

let recent_ring : result list ref = ref []

let push_recent r =
  Mutex.lock recent_mutex;
  recent_ring := r :: (if List.length !recent_ring >= recent_cap then
                         List.filteri (fun i _ -> i < recent_cap - 1) !recent_ring
                       else !recent_ring);
  Mutex.unlock recent_mutex

let recent () =
  Mutex.lock recent_mutex;
  let r = !recent_ring in
  Mutex.unlock recent_mutex;
  r

(* --- planning -------------------------------------------------------- *)

let plan (repo : Repository.t) (recs : (string * float) list) : (int * int) list =
  List.filter_map
    (fun (path, factor) ->
      match Repository.find_container_by_path repo path with
      | None -> None
      | Some c ->
        if factor <= 0.0 || c.Container.n_records = 0 then None
        else begin
          let proposed =
            Container.clamp_block_size
              (int_of_float (float_of_int c.Container.block_size *. factor))
          in
          if proposed = c.Container.block_size then None
          else Some (c.Container.id, proposed)
        end)
    recs

(* --- the pass -------------------------------------------------------- *)

let compact_mutex = Mutex.create ()

let busy_flag = Atomic.make false

let busy () = Atomic.get busy_flag

let compact_container (repo : Repository.t) ~(id : int) ~(block_size : int) : result =
  if id < 0 || id >= Array.length repo.Repository.containers then
    invalid_arg "Compactor.compact_container";
  let block_size = Container.clamp_block_size block_size in
  Mutex.lock compact_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock compact_mutex)
    (fun () ->
      let old = repo.Repository.containers.(id) in
      let t0 = Xquec_obs.Trace.now_us () in
      Xquec_obs.Trace.with_span ~name:"compactor.compact"
        ~attrs:
          [ ("path", old.Container.path); ("block_size", string_of_int block_size) ]
      @@ fun () ->
      let fresh = Container.reblocked old ~block_size in
      (* the swap: a single boxed-pointer store; see the module header *)
      repo.Repository.containers.(id) <- fresh;
      let invalidated = Buffer_pool.invalidate_container ~uid:old.Container.uid in
      let wall_ms = (Xquec_obs.Trace.now_us () -. t0) /. 1000.0 in
      let r =
        {
          c_path = old.Container.path;
          c_id = id;
          c_records = old.Container.n_records;
          c_block_size_before = old.Container.block_size;
          c_block_size_after = block_size;
          c_blocks_before = Array.length old.Container.blocks;
          c_blocks_after = Array.length fresh.Container.blocks;
          c_invalidated = invalidated;
          c_epoch = fresh.Container.compaction_epoch;
          c_wall_ms = wall_ms;
        }
      in
      Atomic.incr stat_compactions;
      ignore
        (Atomic.fetch_and_add stat_blocks_rewritten
           (Array.length fresh.Container.blocks));
      ignore
        (Atomic.fetch_and_add stat_bytes_rewritten (Container.compressed_bytes fresh));
      if Xquec_obs.is_enabled () then begin
        Xquec_obs.Metrics.incr "compactor.compactions";
        Xquec_obs.Metrics.incr ~by:(Array.length fresh.Container.blocks)
          "compactor.blocks_rewritten";
        Xquec_obs.Metrics.observe "compactor.compact_ms" wall_ms
      end;
      push_recent r;
      r)

let compact (repo : Repository.t) ~(targets : (int * int) list) : result list =
  List.map (fun (id, bs) -> compact_container repo ~id ~block_size:bs) targets

let request (repo : Repository.t) ~(targets : (int * int) list) : bool =
  if targets = [] then false
  else if not (Atomic.compare_and_set busy_flag false true) then false
  else begin
    Fun.protect
      ~finally:(fun () -> Atomic.set busy_flag false)
      (fun () -> try ignore (compact repo ~targets) with _ -> ());
    true
  end

(* --- status ---------------------------------------------------------- *)

let status_json () : Xquec_obs.Json.t =
  let s = snapshot () in
  let result_json (r : result) =
    Xquec_obs.Json.Obj
      [
        ("container", Xquec_obs.Json.Str r.c_path);
        ("id", Xquec_obs.Json.Num (float_of_int r.c_id));
        ("records", Xquec_obs.Json.Num (float_of_int r.c_records));
        ("block_size_before", Xquec_obs.Json.Num (float_of_int r.c_block_size_before));
        ("block_size_after", Xquec_obs.Json.Num (float_of_int r.c_block_size_after));
        ("blocks_before", Xquec_obs.Json.Num (float_of_int r.c_blocks_before));
        ("blocks_after", Xquec_obs.Json.Num (float_of_int r.c_blocks_after));
        ("invalidated", Xquec_obs.Json.Num (float_of_int r.c_invalidated));
        ("epoch", Xquec_obs.Json.Num (float_of_int r.c_epoch));
        ("wall_ms", Xquec_obs.Json.Num r.c_wall_ms);
      ]
  in
  Xquec_obs.Json.Obj
    [
      ("busy", Xquec_obs.Json.Bool (busy ()));
      ("compactions", Xquec_obs.Json.Num (float_of_int s.k_compactions));
      ("blocks_rewritten", Xquec_obs.Json.Num (float_of_int s.k_blocks_rewritten));
      ("bytes_rewritten", Xquec_obs.Json.Num (float_of_int s.k_bytes_rewritten));
      ("recent", Xquec_obs.Json.List (List.map result_json (recent ())));
    ]
