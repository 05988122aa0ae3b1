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

let query_ast (t : t) (ast : Xquery.Ast.expr) : Executor.item list = Executor.run t.repo ast

(** Evaluate and serialize (decompressing the result, as the paper's QET
    measurements do). *)
let query_serialized (t : t) (text : string) : string =
  Executor.serialize t.repo (query_ast t (parse_query text))

(* --- query log ------------------------------------------------------- *)

let iso8601 (t : float) : string =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (int_of_float (Float.rem t 1.0 *. 1000.0))

(* What the log record needs of the clocks before and after a query.
   Only read when the query log is on: CPU time is a system call. *)
type clock = { ts : float; us : float; cpu_ms : float; alloc : float; gc : Gc.stat }

let read_clock () =
  let tms = Unix.times () in
  {
    ts = Unix.gettimeofday ();
    us = Xquec_obs.Trace.now_us ();
    cpu_ms = (tms.Unix.tms_utime +. tms.Unix.tms_stime) *. 1000.0;
    alloc = Gc.allocated_bytes ();
    gc = Gc.quick_stat ();
  }

(* The JSONL query-log record of one query: its costs come from its
   ledger [l]; wall and CPU time and GC figures from the clocks read
   around it. *)
let log_record ~admission ~text ~items ~out ~prof ~(c0 : clock) ~(c1 : clock)
    (l : Xquec_obs.Ledger.t) : Xquec_obs.Json.t =
  let module Json = Xquec_obs.Json in
  let module L = Xquec_obs.Ledger in
  let n name v = (name, Json.Num (float_of_int v)) in
  let containers =
    List.map
      (fun (c : L.container) ->
        Json.Obj
          [
            ("container", Json.Str c.c_label);
            n "touches" c.c_touches;
            n "decodes" c.c_decodes;
            n "hits" (max 0 (c.c_touches - c.c_decodes));
            n "header_skips" c.c_header_skips;
            n "decoded_bytes" c.c_bytes_decoded;
            n "skipped_bytes" c.c_bytes_skipped;
          ])
      (L.containers l)
  in
  let predicates =
    List.map
      (fun (o : Xquec_obs.Profile.obs) ->
        Json.Obj
          [
            ("container", Json.Str o.ob_container);
            ("kind", Json.Str o.ob_kind);
            n "candidates" o.ob_candidates;
            n "matches" o.ob_matches;
          ])
      (L.predicates l)
  in
  Json.Obj
    ([
       ("ts", Json.Str (iso8601 c0.ts));
       ("query_hash", Json.Str (query_hash text));
       ("query", Json.Str text);
       ("plan_shape", Json.Str (Xquec_obs.Explain.shape prof));
       ("wall_ms", Json.Num ((c1.us -. c0.us) /. 1000.0));
       ("cpu_ms", Json.Num (c1.cpu_ms -. c0.cpu_ms));
       n "rows" (List.length items);
       n "result_bytes" (String.length out);
       ( "bytes",
         Json.Obj
           [
             n "decoded" l.decoded_bytes;
             n "payload_decoded" l.payload_decoded;
             n "payload_skipped" l.payload_skipped;
           ] );
       ( "pool",
         Json.Obj
           [
             n "hits" l.hits;
             n "misses" l.misses;
             n "latch_waits" l.latch_waits;
             n "evictions" l.evictions;
             n "blocks_skipped" l.blocks_skipped;
             n "scan_inserts" l.scan_inserts;
           ] );
       ( "join",
         Json.Obj
           [
             n "block_joins" l.block_joins;
             n "blocks_probed" l.join_blocks_probed;
             n "blocks_skipped" l.join_blocks_skipped;
             n "skipped_bytes" l.join_skipped_bytes;
           ] );
       ( "gc",
         Json.Obj
           [
             ("allocated_bytes", Json.Num (c1.alloc -. c0.alloc));
             n "minor_collections" (c1.gc.Gc.minor_collections - c0.gc.Gc.minor_collections);
             n "major_collections" (c1.gc.Gc.major_collections - c0.gc.Gc.major_collections);
           ] );
       ("containers", Json.List containers);
       ("predicates", Json.List predicates);
       ("plan", Xquec_obs.Explain.summary_json prof);
     ]
    @ match admission with Some adm -> [ ("admission", adm) ] | None -> [])

(** Evaluate and serialize inside one {!Xquec_obs.Ledger}: the query's
    own costs, charged as they happen on this domain. The watchdog
    observes them and, when a log file is configured, one JSONL record
    is appended. Also returns the profile so callers (EXPLAIN, serve)
    can render it. The ledger spans evaluation {e and} serialization:
    decompressing the result is part of the query's cost (the paper's
    QET convention), so a single-query run reconciles with the CLI's
    [--stats] pool summary.

    [plan] is a pre-compiled AST (from {!compile}) — when given, the
    parse is skipped; [text] is still used for the log record's hash
    and echo. [admission] is an opaque JSON object the serving layer
    attaches describing how the request was admitted (in-flight depth,
    plan-cache outcome, configured limits); it is logged verbatim as the
    record's ["admission"] field. *)
let query_serialized_logged ?(admission : Xquec_obs.Json.t option)
    ?(plan : Xquery.Ast.expr option) (t : t) (text : string) :
    string * Xquec_obs.Explain.node =
  Xquec_obs.Ledger.with_ledger @@ fun l ->
  let c0 = if Xquec_obs.Query_log.enabled () then Some (read_clock ()) else None in
  let ast = match plan with Some ast -> ast | None -> parse_query text in
  let items, prof = Executor.run_profiled t.repo ast in
  let out = Executor.serialize t.repo items in
  let clocks = Option.map (fun c0 -> (c0, read_clock ())) c0 in
  if Xquec_obs.Watch.enabled () then
    Xquec_obs.Watch.observe ~predicates:(Xquec_obs.Ledger.predicates l)
      ~containers:
        (List.map
           (fun (c : Xquec_obs.Ledger.container) -> (c.c_label, c.c_bytes_decoded))
           (Xquec_obs.Ledger.containers l))
      ();
  Option.iter
    (fun (c0, c1) ->
      Xquec_obs.Query_log.append (log_record ~admission ~text ~items ~out ~prof ~c0 ~c1 l))
    clocks;
  (out, prof)

let compression_factor (t : t) = Repository.compression_factor t.repo

let size_breakdown (t : t) = Repository.size_breakdown t.repo

let save (t : t) : string = Repository.serialize t.repo

let restore (data : string) : t = { repo = Repository.deserialize data; partitioning = None }

(** Reconstruct the full document from the compressed repository (the
    decompressor direction). *)
let to_document (t : t) : Xmlkit.Tree.document =
  { Xmlkit.Tree.root = Value_access.reconstruct (Exec_base.mk_ctx t.repo) 0 }

let to_xml ?indent (t : t) : string = Xmlkit.Printer.to_string ?indent (to_document t)
