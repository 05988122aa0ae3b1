(* Public facade of XQueC: load (compress) a document — optionally tuned
   to a query workload — and evaluate XQuery over the compressed
   repository. See engine.mli. *)

open Storage

type t = { repo : Repository.t; partitioning : Partitioner.result option }

let load ?(name = "doc.xml") ?(workload : string list option) ?loader_options (xml : string) : t
    =
  Xquec_obs.Trace.with_span ~name:"engine.load" ~attrs:[ ("document", name) ]
  @@ fun () ->
  let queries = List.map Xquery.Parser.parse (Option.value ~default:[] workload) in
  let parsed = Loader.parse ?options:loader_options ~name xml in
  let partitioning =
    match queries with
    | [] -> None
    | _ ->
      Xquec_obs.Trace.with_span ~name:"partitioner.optimize"
        ~attrs:[ ("queries", string_of_int (List.length queries)) ]
      @@ fun () ->
      let workload = Workload.analyze (Loader.dict parsed) (Loader.summary parsed) queries in
      Some (Partitioner.search (Loader.values parsed) workload)
  in
  let configuration = Option.map (fun r -> r.Partitioner.configuration) partitioning in
  { repo = Loader.build ?configuration parsed; partitioning }

let repo t = t.repo

let parse_query = Xquery.Parser.parse

(** MD5 hex of the query text — the query log's [query_hash] and the
    plan cache's key, computed in one place so they can never drift. *)
let query_hash (text : string) : string = Digest.to_hex (Digest.string text)

let compile (text : string) : Xquery.Ast.expr * Plan_cache.lookup =
  Plan_cache.find_or_add ~key:(query_hash text) (fun () -> parse_query text)

let query_ast (t : t) (ast : Xquery.Ast.expr) : Executor.item list = Executor.run t.repo ast

(* --- the request path ------------------------------------------------ *)

type request = {
  text : string;
  plan : Xquery.Ast.expr option;
  admission : Xquec_obs.Json.t option;
  record : bool;
  watch : Xquec_obs.Watch.t option;
  limits : Xquec_obs.Ledger.limits;
}

let plain text =
  { text; plan = None; admission = None; record = false; watch = None;
    limits = Xquec_obs.Ledger.unlimited }

type response = {
  out : string;
  rows : int;
  ledger : Xquec_obs.Ledger.t;
  explain : Xquec_obs.Explain.node;
  wall_ms : float;
}

let error_message = function
  | Xquery.Parser.Syntax_error (msg, pos) -> Some (Xquery.Parser.error_message msg pos)
  | Executor.Eval_error msg -> Some ("evaluation error: " ^ msg)
  | _ -> None

let iso8601 (t : float) : string =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (int_of_float (Float.rem t 1.0 *. 1000.0))

(* What the log record needs of the clocks before and after a query.
   Only read when the query log is on: CPU time is a system call. *)
type clock = { ts : float; cpu_ms : float; alloc : float; gc : Gc.stat }

let read_clock () =
  let tms = Unix.times () in
  {
    ts = Unix.gettimeofday ();
    cpu_ms = (tms.Unix.tms_utime +. tms.Unix.tms_stime) *. 1000.0;
    alloc = Gc.allocated_bytes ();
    gc = Gc.quick_stat ();
  }

(* The [(container path, decoded bytes)] touches of a ledger, as the
   query log records them and the fingerprint aggregates take them. *)
let touches (l : Xquec_obs.Ledger.t) : (string * int) list =
  List.map
    (fun (c : Xquec_obs.Ledger.container) -> (c.c_label, c.c_bytes_decoded))
    (Xquec_obs.Ledger.containers l)

(* The JSONL query-log record of one request: its costs come from its
   ledger [l]; CPU time and GC figures from the clocks read around it.
   [outcome] is the response, or the error kind of a request that
   raised, whose record has no plan. *)
let log_record (r : request) ~outcome ~wall_ms ~(c0 : clock) ~(c1 : clock)
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
      (fun (o : Xquec_obs.Ledger.obs) ->
        Json.Obj
          [
            ("container", Json.Str o.ob_container);
            ("kind", Json.Str o.ob_kind);
            n "candidates" o.ob_candidates;
            n "matches" o.ob_matches;
          ])
      (L.predicates l)
  in
  let error, shape, rows, out, plan =
    match outcome with
    | Ok { out; rows; explain = e; _ } ->
      (Json.Null, Json.Str (Xquec_obs.Explain.shape e), rows, out, Xquec_obs.Explain.summary_json e)
    | Error kind -> (Json.Str kind, Json.Null, 0, "", Json.Null)
  in
  let fields =
    ([
       ("ts", Json.Str (iso8601 c0.ts));
       ("query_hash", Json.Str (query_hash r.text));
       ("query", Json.Str r.text);
       ("error", error);
       ("plan_shape", shape);
       ("wall_ms", Json.Num wall_ms);
       ("cpu_ms", Json.Num (c1.cpu_ms -. c0.cpu_ms));
       n "rows" rows;
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
       ("plan", plan);
     ]
    @ match r.admission with Some adm -> [ ("admission", adm) ] | None -> [])
  in
  Json.Obj (List.filter (function _, Json.Null -> false | _ -> true) fields)

let error_kind = function
  | Xquec_obs.Ledger.Exceeded _ -> "budget_exceeded"
  | Executor.Eval_error _ -> "eval_error"
  | Xquery.Parser.Syntax_error _ -> "syntax_error"
  | _ -> "internal_error"

let request (t : t) (r : request) : response =
  let c0 = if r.record && Xquec_obs.Query_log.enabled () then Some (read_clock ()) else None in
  let t0 = Xquec_obs.Trace.now_us () in
  let ledger, result =
    Xquec_obs.Ledger.with_ledger ~limits:r.limits @@ fun l ->
    ( l,
      match
        let ast = match r.plan with Some ast -> ast | None -> parse_query r.text in
        let items, explain = Executor.run_profiled t.repo ast in
        (List.length items, Executor.serialize t.repo items, explain)
      with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ()) )
  in
  let wall_ms = (Xquec_obs.Trace.now_us () -. t0) /. 1000.0 in
  let outcome =
    Result.map (fun (rows, out, explain) -> { out; rows; ledger; explain; wall_ms }) result
  in
  Option.iter
    (fun c0 ->
      let outcome = Result.map_error (fun (e, _) -> error_kind e) outcome in
      Xquec_obs.Query_log.append (log_record r ~outcome ~wall_ms ~c0 ~c1:(read_clock ()) ledger))
    c0;
  Option.iter
    (fun w ->
      Xquec_obs.Watch.observe w ~predicates:(Xquec_obs.Ledger.predicates ledger)
        ~containers:(touches ledger) ())
    r.watch;
  match outcome with Ok resp -> resp | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let query_serialized (t : t) (text : string) : string =
  (request t (plain text)).out

let declared_fingerprint (t : t) (texts : string list) : Xquec_obs.Profile.fingerprint =
  let g = Xquec_obs.Profile.agg_create () in
  List.iter
    (fun text ->
      let { ledger; _ } = request t (plain text) in
      Xquec_obs.Profile.agg_add g ~predicates:(Xquec_obs.Ledger.predicates ledger)
        ~containers:(touches ledger))
    texts;
  Xquec_obs.Profile.agg_fingerprint g

let block_targets (t : t) (fp : Xquec_obs.Profile.fingerprint) : (int * int) list =
  let heat = Xquec_obs.Heat.snapshot (Repository.heat_rows t.repo) in
  Compactor.plan t.repo (Xquec_obs.Profile.actionable (Xquec_obs.Profile.recommend ~heat fp))

let compression_factor (t : t) = Repository.compression_factor t.repo

let size_breakdown (t : t) = Repository.size_breakdown t.repo

let save (t : t) : string = Repository.serialize t.repo

let restore (data : string) : t = { repo = Repository.deserialize data; partitioning = None }

let to_document (t : t) : Xmlkit.Tree.document =
  { Xmlkit.Tree.root = Value_access.reconstruct (Exec_base.mk_ctx t.repo) 0 }

let to_xml ?indent (t : t) : string = Xmlkit.Printer.to_string ?indent (to_document t)
