(* Background container compaction: re-block a live container toward a
   recommended block size and swap it into the repository without
   stopping query traffic.

   The swap is copy-on-write:

   1. {!Container.reblocked} builds a FRESH container (new pool uid)
      holding the same record sequence, and the compactor bumps its
      epoch. The original stays fully readable while the rebuild
      decodes its blocks straight from their payloads
      ({!Container.read_block}), outside the buffer pool, so the
      rebuild neither flushes the hot set nor counts as query heat.
   2. {!Repository.replace_container} stores it into the container's
      slot, a single pointer store: a concurrent reader sees either the
      old or the new container — both answer every query identically
      (same codes, same parents, same order), so response bytes cannot
      change across the swap. Readers that already hold the old
      container keep using it; its blocks stay decodable for as long as
      the value is reachable.
   3. It then invalidates the old uid's pool entries, releasing their
      budget share (new lookups can no longer produce the old uid, so
      nothing re-populates them — stragglers holding the old container
      may re-decode, which is correct, just unpaid for by the cache).

   Concurrency discipline: the repository's pass mutex serializes its
   compaction passes (two concurrent re-blocks of one container would
   waste work, not corrupt — the mutex exists for predictability and
   for the busy-flag the server exposes). The counters, busy flag and
   recent ring live in the repository (Repository.compactions), so a
   server's /compact reports the repository it serves. [request] runs
   the pass on the caller; serve calls it from its watchdog domain,
   off the query path. *)

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

(* --- the repository's cumulative stats + a small ring of recent results *)

type stats = { k_compactions : int; k_blocks_rewritten : int; k_bytes_rewritten : int }

let snapshot (repo : Repository.t) : stats =
  let k = repo.Repository.compactions in
  {
    k_compactions = Atomic.get k.Repository.count;
    k_blocks_rewritten = Atomic.get k.Repository.blocks_rewritten;
    k_bytes_rewritten = Atomic.get k.Repository.bytes_rewritten;
  }

let busy (repo : Repository.t) = Atomic.get repo.Repository.compactions.Repository.busy

let recent_cap = 16

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

(* --- planning -------------------------------------------------------- *)

let plan (repo : Repository.t) (recs : (string * float) list) : (int * int) list =
  (* the ceiling as a float: a huge factor is clamped before it can
     overflow the conversion to an int *)
  let ceiling = float_of_int (Container.clamp_block_size max_int) in
  List.filter_map
    (fun (path, factor) ->
      match Repository.find_container_by_path repo path with
      | Some c when Float.is_finite factor && factor > 0.0 && c.Container.n_records > 0 ->
        let scaled = Float.min ceiling (float_of_int c.Container.block_size *. factor) in
        let proposed = Container.clamp_block_size (int_of_float scaled) in
        (* one block whose records fit in one block at the new size too:
           re-blocking would rewrite the same block *)
        let unchanged =
          Array.length c.Container.blocks = 1 && c.Container.plain_bytes <= proposed
        in
        if proposed = c.Container.block_size || unchanged then None
        else Some (c.Container.id, proposed)
      | _ -> None)
    recs

(* --- the pass -------------------------------------------------------- *)

let compact_container (repo : Repository.t) ~(id : int) ~(block_size : int) : result =
  if id < 0 || id >= Array.length repo.Repository.containers then
    invalid_arg "Compactor.compact_container";
  let block_size = Container.clamp_block_size block_size in
  let k = repo.Repository.compactions in
  Mutex.protect k.Repository.pass (fun () ->
      let old = repo.Repository.containers.(id) in
      let t0 = Xquec_obs.Trace.now_us () in
      Xquec_obs.Trace.with_span ~name:"compactor.compact"
        ~attrs:
          [ ("path", old.Container.path); ("block_size", string_of_int block_size) ]
      @@ fun () ->
      let fresh =
        {
          (Container.reblocked old ~block_size) with
          Container.compaction_epoch = old.Container.compaction_epoch + 1;
        }
      in
      let invalidated = Repository.replace_container repo fresh in
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
      Atomic.incr k.Repository.count;
      ignore (Atomic.fetch_and_add k.Repository.blocks_rewritten (Array.length fresh.Container.blocks));
      ignore (Atomic.fetch_and_add k.Repository.bytes_rewritten (Container.compressed_bytes fresh));
      if Xquec_obs.is_enabled () then Xquec_obs.Metrics.observe "compactor.compact_ms" wall_ms;
      (* the pass lock makes this the ring's only writer *)
      let recent = Atomic.get k.Repository.recent in
      Atomic.set k.Repository.recent
        (result_json r :: List.filteri (fun i _ -> i < recent_cap - 1) recent);
      r)

let compact (repo : Repository.t) ~(targets : (int * int) list) : result list =
  List.map (fun (id, bs) -> compact_container repo ~id ~block_size:bs) targets

let request (repo : Repository.t) ~(targets : (int * int) list) : bool =
  let busy = repo.Repository.compactions.Repository.busy in
  if targets = [] then false
  else if not (Atomic.compare_and_set busy false true) then false
  else begin
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () -> try ignore (compact repo ~targets) with _ -> ());
    true
  end

(* --- status ---------------------------------------------------------- *)

let status_json (repo : Repository.t) : Xquec_obs.Json.t =
  let s = snapshot repo in
  Xquec_obs.Json.Obj
    [
      ("busy", Xquec_obs.Json.Bool (busy repo));
      ("compactions", Xquec_obs.Json.Num (float_of_int s.k_compactions));
      ("blocks_rewritten", Xquec_obs.Json.Num (float_of_int s.k_blocks_rewritten));
      ("bytes_rewritten", Xquec_obs.Json.Num (float_of_int s.k_bytes_rewritten));
      ("recent", Xquec_obs.Json.List (Atomic.get repo.Repository.compactions.Repository.recent));
    ]
