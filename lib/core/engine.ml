(* Public facade of XQueC: load (compress) a document — optionally tuned
   to a query workload — and evaluate XQuery over the compressed
   repository. *)

open Storage

type t = { repo : Repository.t; partitioning : Partitioner.result option }

(** Compress [xml] into a queryable repository. When [workload] queries
    are given, the §3 greedy search chooses the compression configuration
    (algorithms + shared source models) before the repository is
    finalized. *)
let load ?(name = "doc.xml") ?(workload : string list option) ?loader_options (xml : string) : t
    =
  Xquec_obs.Trace.with_span ~name:"engine.load" ~attrs:[ ("document", name) ]
  @@ fun () ->
  let queries = List.map Xquery.Parser.parse (Option.value ~default:[] workload) in
  let repo = Loader.load ?options:loader_options ~workload:queries ~name xml in
  let partitioning =
    match queries with [] -> None | _ -> Some (Partitioner.optimize repo queries)
  in
  { repo; partitioning }

let repo t = t.repo

let parse_query = Xquery.Parser.parse

(** MD5 hex of the query text — the query log's [query_hash] and the
    plan cache's key, computed in one place so they can never drift. *)
let query_hash (text : string) : string = Digest.to_hex (Digest.string text)

(** Parse [text] through the process-wide {!Plan_cache}: returns the
    (possibly cached) immutable AST plus how the lookup resolved. Parse
    errors propagate and are never cached. *)
let compile (text : string) : Xquery.Ast.expr * Plan_cache.lookup =
  Plan_cache.find_or_add ~key:(query_hash text) (fun () -> parse_query text)

(** Evaluate a query; results stay compressed where possible. *)
let query (t : t) (text : string) : Executor.item list =
  Executor.run t.repo (parse_query text)

(** Evaluate with per-operator profiling: returns the results plus the
    annotated physical plan tree. *)
let query_profiled (t : t) (text : string) :
    Executor.item list * Xquec_obs.Explain.node =
  Executor.run_profiled t.repo (parse_query text)

let query_ast (t : t) (ast : Xquery.Ast.expr) : Executor.item list = Executor.run t.repo ast

(** Evaluate and serialize (decompressing the result, as the paper's QET
    measurements do). *)
let query_serialized (t : t) (text : string) : string =
  Executor.serialize t.repo (query t text)

(* --- query log ------------------------------------------------------- *)

let iso8601 (t : float) : string =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (int_of_float (Float.rem t 1.0 *. 1000.0))

let cpu_ms () =
  let tms = Unix.times () in
  (tms.Unix.tms_utime +. tms.Unix.tms_stime) *. 1000.0

(** Evaluate, serialize, and append one record to the JSONL query log
    ({!Xquec_obs.Query_log}) accounting for the query's full cost: wall
    and CPU time, the profiled plan (shape + per-operator
    cardinalities), buffer-pool and decode-pool counter deltas, bytes
    decoded vs. bytes pruned, and GC allocation deltas. Also returns
    the profile so callers (EXPLAIN, serve) can render it. The deltas
    are taken around evaluation {e and} serialization, so they
    reconcile with the CLI's [--stats] pool summary for a
    single-query run. When no log file is configured this is
    {!query_profiled} + serialization without the bookkeeping.

    [plan] is a pre-compiled AST (from {!compile}) — when given, the
    parse is skipped; [text] is still used for the log record's hash
    and echo. [admission] is an opaque JSON object the serving layer
    attaches describing how the request was admitted (in-flight depth,
    plan-cache outcome, armed budgets); it is logged verbatim as the
    record's ["admission"] field. *)
(* Per-container heat deltas between two snapshots, keyed by pool uid
   (hashtable lookup, so the diff is linear in the container count).
   Containers the query did not touch (no touches, header skips or
   decoded bytes) are dropped; heat disabled yields an empty list. *)
let heat_delta (heat0 : Xquec_obs.Heat.stat list) (heat1 : Xquec_obs.Heat.stat list) :
    Xquec_obs.Heat.stat list =
  let before : (int, Xquec_obs.Heat.stat) Hashtbl.t = Hashtbl.create (List.length heat0) in
  List.iter (fun (s : Xquec_obs.Heat.stat) -> Hashtbl.replace before s.uid s) heat0;
  List.filter_map
    (fun (s1 : Xquec_obs.Heat.stat) ->
      let z =
        match Hashtbl.find_opt before s1.uid with
        | Some s0 ->
          {
            s1 with
            touches = s1.touches - s0.Xquec_obs.Heat.touches;
            decodes = s1.decodes - s0.Xquec_obs.Heat.decodes;
            hits = s1.hits - s0.Xquec_obs.Heat.hits;
            header_skips = s1.header_skips - s0.Xquec_obs.Heat.header_skips;
            bytes_decoded = s1.bytes_decoded - s0.Xquec_obs.Heat.bytes_decoded;
            bytes_skipped = s1.bytes_skipped - s0.Xquec_obs.Heat.bytes_skipped;
          }
        | None -> s1
      in
      if
        z.Xquec_obs.Heat.touches = 0
        && z.Xquec_obs.Heat.header_skips = 0
        && z.Xquec_obs.Heat.bytes_decoded = 0
      then None
      else Some z)
    heat1

(* Feed one query's observations — the same values the log record
   carries — into the streaming watchdog. *)
let watch_observe (predicates : Executor.pred_obs list) (deltas : Xquec_obs.Heat.stat list) :
    unit =
  Xquec_obs.Watch.observe
    ~predicates:
      (List.map
         (fun (o : Executor.pred_obs) ->
           {
             Xquec_obs.Profile.ob_container = o.Executor.o_container;
             ob_kind = o.Executor.o_kind;
             ob_candidates = o.Executor.o_candidates;
             ob_matches = o.Executor.o_matches;
           })
         predicates)
    ~containers:
      (List.map
         (fun (z : Xquec_obs.Heat.stat) -> (z.Xquec_obs.Heat.label, z.Xquec_obs.Heat.bytes_decoded))
         deltas)
    ()

let query_serialized_logged ?(admission : Xquec_obs.Json.t option)
    ?(plan : Xquery.Ast.expr option) (t : t) (text : string) :
    string * Xquec_obs.Explain.node =
  let run_profiled () =
    match plan with
    | Some ast -> Executor.run_profiled t.repo ast
    | None -> query_profiled t text
  in
  let log_on = Xquec_obs.Query_log.enabled () in
  let watch_on = Xquec_obs.Watch.enabled () in
  if not (log_on || watch_on) then begin
    let items, prof = run_profiled () in
    (Executor.serialize t.repo items, prof)
  end
  else if not log_on then begin
    (* watchdog only: skip the pool / GC / join bookkeeping the log
       record needs — one heat diff and the executor's predicate
       observations are the whole cost *)
    let heat0 = Xquec_obs.Heat.snapshot () in
    let items, prof = run_profiled () in
    let out = Executor.serialize t.repo items in
    let heat1 = Xquec_obs.Heat.snapshot () in
    watch_observe (Executor.predicate_observations ()) (heat_delta heat0 heat1);
    (out, prof)
  end
  else begin
    let module Json = Xquec_obs.Json in
    let started_at = Unix.gettimeofday () in
    let pool0 = Buffer_pool.snapshot () in
    let dpool0 = Domain_pool.snapshot () in
    let j0 = Executor.join_stats () in
    let heat0 = Xquec_obs.Heat.snapshot () in
    let gc_alloc0 = Gc.allocated_bytes () in
    let gc0 = Gc.quick_stat () in
    let cpu0 = cpu_ms () in
    let t0 = Xquec_obs.Trace.now_us () in
    let items, prof = run_profiled () in
    let out = Executor.serialize t.repo items in
    (* deltas taken after serialization: decompressing the result is
       part of the query's cost (the paper's QET convention) *)
    let wall_ms = (Xquec_obs.Trace.now_us () -. t0) /. 1000.0 in
    let cpu = cpu_ms () -. cpu0 in
    let pool1 = Buffer_pool.snapshot () in
    let dpool1 = Domain_pool.snapshot () in
    let j1 = Executor.join_stats () in
    let heat1 = Xquec_obs.Heat.snapshot () in
    let gc_alloc1 = Gc.allocated_bytes () in
    let gc1 = Gc.quick_stat () in
    let n name v = (name, Json.Num (float_of_int v)) in
    (* per-container heat deltas and the executor's predicate
       observations: computed once, feeding both the log record and
       the streaming watchdog (the watchdog sees exactly the values
       the log records, so the two fingerprints agree). *)
    let deltas = heat_delta heat0 heat1 in
    let pred_obs = Executor.predicate_observations () in
    if watch_on then watch_observe pred_obs deltas;
    let containers =
      List.map
        (fun (z : Xquec_obs.Heat.stat) ->
          Json.Obj
            [
              ("container", Json.Str z.Xquec_obs.Heat.label);
              n "touches" z.Xquec_obs.Heat.touches;
              n "decodes" z.Xquec_obs.Heat.decodes;
              n "hits" z.Xquec_obs.Heat.hits;
              n "header_skips" z.Xquec_obs.Heat.header_skips;
              n "decoded_bytes" z.Xquec_obs.Heat.bytes_decoded;
              n "skipped_bytes" z.Xquec_obs.Heat.bytes_skipped;
            ])
        deltas
    in
    (* container-resolved predicate observations of this evaluation *)
    let predicates =
      List.map
        (fun (o : Executor.pred_obs) ->
          Json.Obj
            [
              ("container", Json.Str o.Executor.o_container);
              ("kind", Json.Str o.Executor.o_kind);
              n "candidates" o.Executor.o_candidates;
              n "matches" o.Executor.o_matches;
            ])
        pred_obs
    in
    let record =
      Json.Obj
        [
          ("ts", Json.Str (iso8601 started_at));
          ("query_hash", Json.Str (query_hash text));
          ("query", Json.Str text);
          ("plan_shape", Json.Str (Xquec_obs.Explain.shape prof));
          ("wall_ms", Json.Num wall_ms);
          ("cpu_ms", Json.Num cpu);
          n "rows" (List.length items);
          n "result_bytes" (String.length out);
          ( "bytes",
            Json.Obj
              [
                n "decoded" (pool1.Buffer_pool.s_decoded_bytes - pool0.Buffer_pool.s_decoded_bytes);
                n "payload_decoded"
                  (pool1.Buffer_pool.s_payload_bytes - pool0.Buffer_pool.s_payload_bytes);
                n "payload_skipped"
                  (pool1.Buffer_pool.s_skipped_bytes - pool0.Buffer_pool.s_skipped_bytes);
              ] );
          ( "pool",
            Json.Obj
              [
                n "hits" (pool1.Buffer_pool.s_hits - pool0.Buffer_pool.s_hits);
                n "misses" (pool1.Buffer_pool.s_misses - pool0.Buffer_pool.s_misses);
                n "latch_waits"
                  (pool1.Buffer_pool.s_latch_waits - pool0.Buffer_pool.s_latch_waits);
                n "evictions" (pool1.Buffer_pool.s_evictions - pool0.Buffer_pool.s_evictions);
                n "blocks_skipped"
                  (pool1.Buffer_pool.s_blocks_skipped - pool0.Buffer_pool.s_blocks_skipped);
                n "scan_inserts"
                  (pool1.Buffer_pool.s_scan_inserts - pool0.Buffer_pool.s_scan_inserts);
              ] );
          ( "decode_pool",
            Json.Obj
              [
                n "domains" dpool1.Domain_pool.p_domains;
                n "batches" (dpool1.Domain_pool.p_batches - dpool0.Domain_pool.p_batches);
                n "tasks" (dpool1.Domain_pool.p_tasks - dpool0.Domain_pool.p_tasks);
                n "inline_tasks" (dpool1.Domain_pool.p_inline - dpool0.Domain_pool.p_inline);
                n "max_queue_depth" dpool1.Domain_pool.p_max_queue_depth;
              ] );
          ( "join",
            Json.Obj
              [
                n "block_joins" (j1.Executor.j_block_joins - j0.Executor.j_block_joins);
                n "blocks_probed" (j1.Executor.j_blocks_probed - j0.Executor.j_blocks_probed);
                n "blocks_skipped" (j1.Executor.j_blocks_skipped - j0.Executor.j_blocks_skipped);
                n "skipped_bytes" (j1.Executor.j_skipped_bytes - j0.Executor.j_skipped_bytes);
              ] );
          ( "gc",
            Json.Obj
              [
                ("allocated_bytes", Json.Num (gc_alloc1 -. gc_alloc0));
                n "minor_collections" (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
                n "major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
              ] );
          ("containers", Json.List containers);
          ("predicates", Json.List predicates);
          ("plan", Xquec_obs.Explain.summary_json prof);
        ]
    in
    let record =
      match (admission, record) with
      | Some adm, Json.Obj fields -> Json.Obj (fields @ [ ("admission", adm) ])
      | _ -> record
    in
    Xquec_obs.Query_log.append record;
    (out, prof)
  end

let compression_factor (t : t) = Repository.compression_factor t.repo

let size_breakdown (t : t) = Repository.size_breakdown t.repo

let save (t : t) : string = Repository.serialize t.repo

let restore (data : string) : t = { repo = Repository.deserialize data; partitioning = None }

(** Reconstruct the full document from the compressed repository (the
    decompressor direction). *)
let to_document (t : t) : Xmlkit.Tree.document =
  let ctx = Executor.mk_ctx t.repo in
  { Xmlkit.Tree.root = Executor.reconstruct ctx 0 }

let to_xml ?indent (t : t) : string = Xmlkit.Printer.to_string ?indent (to_document t)
