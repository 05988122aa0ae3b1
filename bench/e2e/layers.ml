(* The loop the workloads time and the end-to-end metrics computed from
   it; then the per-layer measurements taken around it: deltas of the
   engine's process-wide counters (buffer pool, decode pool, joins, plan
   cache, GC), span self times, and microbenchmarks of the structures a
   request navigates. *)

open Xquec_core
open Storage
module Trace = Xquec_obs.Trace

type metric = string * string * float (* name, unit, value *)

let now = Unix.gettimeofday

(* One request as an in-process caller sees it: query text in,
   serialized answer out, through the serve configuration's plan
   cache. *)
let request (engine : Engine.t) (text : string) : string =
  Trace.with_span ~name:"bench.request" @@ fun () ->
  let plan, _ = Trace.with_span ~name:"bench.compile" (fun () -> Engine.compile text) in
  let items = Trace.with_span ~name:"bench.eval" (fun () -> Engine.query_ast engine plan) in
  Trace.with_span ~name:"bench.serialize" (fun () -> Executor.serialize (Engine.repo engine) items)

(* Every checked operation of the process counts in [attempted]; the
   wrong, failed or missing ones also in [failed], and the first few
   are printed. *)
let attempted = ref 0

let failed = ref 0

let check (ok : bool) (what : string) : unit =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 5 then prerr_endline ("FAILED: " ^ what)
  end

(* --- closed loop ------------------------------------------------------ *)

type run = {
  lat_ms : float array;  (** per operation, in the order sent, as measured *)
  adj_ms : float array;  (** the same at the reference speed (see [Host]) *)
  cls : int array;  (** the operation's class: template, XMark query or document *)
  wall_s : float;  (** the loop's wall time less the reference samples, at the reference speed *)
  result_bytes : int;
  reference_ms : float;  (** the reference's median time during the loop *)
}

let n r = Array.length r.lat_ms

(* One caller, closed loop: [send] the next request once the previous
   answer is back and checked against [expect], until [next] returns
   None. The host's reference is sampled between requests. With
   [spans], drains every 1000 requests. *)
let closed_loop ?spans ~(host : Host.t) ~(expect : (string, Digest.t) Hashtbl.t) (send : string -> string)
    (next : unit -> (int * string) option) : run =
  let ops = ref [] and bytes = ref 0 and count = ref 0 in
  let first = now () in
  let rec loop () =
    Host.tick host;
    let s = now () in
    match next () with
    | None -> ()
    | Some (c, text) ->
      let t0 = now () in
      let out = try Ok (send text) with e -> Error (Printexc.to_string e) in
      let t1 = now () in
      (match out with
      | Ok o ->
        bytes := !bytes + String.length o;
        check (Hashtbl.find_opt expect text = Some (Digest.string o)) ("wrong answer to " ^ text)
      | Error e -> check false (e ^ " on " ^ text));
      incr count;
      (match spans with Some sp when !count mod 1000 = 0 -> Spans.drain sp | _ -> ());
      ops := (c, t0, t1, now () -. s) :: !ops;
      loop ()
  in
  loop ();
  Host.sample host;
  let ops = Array.of_list (List.rev !ops) in
  let factor (_, t0, t1, _) = Host.factor host ~from:t0 ~until:t1 in
  let lat_ms = Array.map (fun (_, t0, t1, _) -> (t1 -. t0) *. 1000.0) ops in
  {
    lat_ms;
    adj_ms = Array.mapi (fun i op -> lat_ms.(i) *. factor op) ops;
    cls = Array.map (fun (c, _, _, _) -> c) ops;
    wall_s = Array.fold_left (fun acc ((_, _, _, cycle) as op) -> acc +. (cycle *. factor op)) 0.0 ops;
    result_bytes = !bytes;
    reference_ms = Host.median_ms host ~from:first ~until:(now ());
  }

(* Geometric mean over the operation classes of each class's median. *)
let geomean_ms (lat : float array) (cls : int array) : float =
  let by = Hashtbl.create 32 in
  Array.iteri (fun i c -> Hashtbl.replace by c (lat.(i) :: Option.value ~default:[] (Hashtbl.find_opt by c))) cls;
  Stats.geomean (Array.of_seq (Seq.map (fun l -> Stats.median (Array.of_list l)) (Hashtbl.to_seq_values by)))

let ops_per_s r = float_of_int (n r) /. r.wall_s

(* How many times set-up is timed in a run. *)
let setups = 11

(* Set-up as a user pays it: [start] timed [setups] times, each at the
   reference speed; the median, and the last result. [stop] releases
   every other result before the next start. *)
let setup ~(host : Host.t) ~(stop : 'a -> unit) (start : unit -> 'a) : float * 'a =
  let rec go k acc =
    Host.sample host;
    let t0 = now () in
    let v = start () in
    let t1 = now () in
    Host.sample host;
    let acc = ((t1 -. t0) *. Host.factor host ~from:t0 ~until:t1) :: acc in
    if k = 1 then (Stats.median (Array.of_list acc), v)
    else begin
      stop v;
      go (k - 1) acc
    end
  in
  go setups []

(* The end-to-end metrics of a workload whose measured loop was [r]. *)
let end_to_end ~setup_s ~peak_rss_mb ~cf (r : run) : metric list =
  [
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MiB", peak_rss_mb);
    ("p50_ms", "ms", Stats.median r.adj_ms);
    ("geomean_ms", "ms", geomean_ms r.adj_ms r.cls);
    ("ops_per_s", "1/s", ops_per_s r);
    ("compression_factor", "fraction", cf);
  ]

(* --- counter snapshots ------------------------------------------------- *)

type snap = {
  pool : Buffer_pool.stats;
  dpool : Domain_pool.stats;
  join : Executor.join_stats;
  plans : Plan_cache.stats;
  gc : Gc.stat;
  alloc : float;
  cpu_s : float;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let snap () =
  {
    pool = Buffer_pool.snapshot ();
    dpool = Domain_pool.snapshot ();
    join = Executor.join_stats ();
    plans = Plan_cache.snapshot ();
    gc = Gc.quick_stat ();
    alloc = Gc.allocated_bytes ();
    cpu_s = cpu_s ();
  }

(* [closed_loop] traced, returning the run, its spans and the counters
   around it. With [export], also writes the last spans as a
   chrome-trace file. *)
let traced ?export ~host ~expect send next : run * Spans.t * snap * snap =
  let sp = Spans.create () in
  let s0 = snap () in
  Spans.start ();
  let r = closed_loop ~spans:sp ~host ~expect send next in
  Option.iter Trace.export export;
  Spans.drain sp;
  Spans.stop ();
  let s1 = snap () in
  check (sp.Spans.dropped = 0) (Printf.sprintf "%d trace spans dropped" sp.Spans.dropped);
  (r, sp, s0, s1)

(* [closed_loop] untraced, with the CPU seconds the process spent in it. *)
let untraced ~host ~expect send next : run * float =
  let c0 = cpu_s () in
  let r = closed_loop ~host ~expect send next in
  (r, cpu_s () -. c0)

(* The layers of the query requests [r], from spans [sp] and counters
   [s0] -> [s1]. *)
let request_layers (r : run) (sp : Spans.t) (s0 : snap) (s1 : snap) : metric list =
  let q = float_of_int (n r) in
  let per x = x /. q in
  let d a b = float_of_int (b - a) in
  let p0 = s0.pool and p1 = s1.pool in
  let hits = d p0.s_hits p1.s_hits and misses = d p0.s_misses p1.s_misses in
  let latch = d p0.s_latch_waits p1.s_latch_waits in
  let payload = d p0.s_payload_bytes p1.s_payload_bytes in
  let skipped = d p0.s_skipped_bytes p1.s_skipped_bytes in
  let fills = d p0.s_prefetch_fills p1.s_prefetch_fills in
  let tasks = d s0.dpool.p_tasks s1.dpool.p_tasks in
  let req_ms = Spans.total_ms sp "bench.request" in
  let ser_ms = Spans.total_ms sp "bench.serialize" in
  let engine_ms = Spans.total_ms sp "bench.compile" +. Spans.total_ms sp "bench.eval" +. ser_ms in
  let plan_hits = d s0.plans.s_hits s1.plans.s_hits in
  [
    ("parser.compile_us", "us", per (1000.0 *. Spans.self_ms sp "bench.compile"));
    ("plan_cache.hit_ratio", "fraction",
     Stats.ratio plan_hits (plan_hits +. d s0.plans.s_misses s1.plans.s_misses));
    ("executor.eval_ms_per_query", "ms", per (Spans.total_ms sp "bench.eval"));
    ("executor.self_ms_per_query", "ms", per (Spans.self_ms sp "executor.run"));
    ("executor.alloc_kb_per_query", "KiB", per ((s1.alloc -. s0.alloc) /. 1024.0));
    ("serialize.ms_per_query", "ms", per ser_ms);
    ("serialize.mb_per_s", "MB/s", Stats.ratio (float_of_int r.result_bytes /. 1e6) (ser_ms /. 1000.0));
    ("serialize.result_bytes_per_query", "bytes", per (float_of_int r.result_bytes));
    ("join.block_joins_per_query", "count", per (d s0.join.j_block_joins s1.join.j_block_joins));
    ("join.blocks_probed_per_query", "count", per (d s0.join.j_blocks_probed s1.join.j_blocks_probed));
    ("join.blocks_skipped_per_query", "count", per (d s0.join.j_blocks_skipped s1.join.j_blocks_skipped));
    ("buffer_pool.fetches_per_query", "count", per (hits +. misses +. latch));
    ("buffer_pool.hit_ratio", "fraction", Stats.ratio hits (hits +. misses +. latch));
    ("buffer_pool.misses_per_query", "count", per misses);
    ("buffer_pool.evictions_per_query", "count", per (d p0.s_evictions p1.s_evictions));
    ("buffer_pool.latch_waits_per_query", "count", per latch);
    ("buffer_pool.payload_kb_per_query", "KiB", per (payload /. 1024.0));
    ("buffer_pool.prune_ratio", "fraction", Stats.ratio skipped (payload +. skipped));
    ("buffer_pool.prefetch_fills_per_query", "count", per fills);
    ("buffer_pool.prefetch_hit_ratio", "fraction",
     Stats.ratio (d p0.s_prefetch_hits p1.s_prefetch_hits) fills);
    ("buffer_pool.working_set_kb", "KiB", float_of_int p1.s_resident_bytes /. 1024.0);
    ("codec.decode_frac", "fraction", Stats.ratio (Spans.total_ms sp "container.decode") req_ms);
    ("domain_pool.wait_frac", "fraction", Stats.ratio (s1.dpool.p_wall_ms -. s0.dpool.p_wall_ms) req_ms);
    ("domain_pool.tasks_per_query", "count", per tasks);
    ("domain_pool.inline_ratio", "fraction", Stats.ratio (d s0.dpool.p_inline s1.dpool.p_inline) tasks);
    ("gc.minor_per_query", "count", per (d s0.gc.minor_collections s1.gc.minor_collections));
    ("gc.major_per_1k_queries", "count",
     1000.0 *. per (d s0.gc.major_collections s1.gc.major_collections));
    ("trace.residual_frac", "fraction",
     Stats.ratio (Spans.self_ms sp "bench.request" +. Spans.self_ms sp "bench.eval") req_ms);
    ("engine.ms_per_request", "ms", per engine_ms);
    ("request.residual_ms", "ms", per (Stats.sum r.lat_ms -. engine_ms));
  ]

(* What the caller saw in the [untraced] loop, as measured: median and
   tail latency, the host's reference time, and the CPU per operation
   of the process doing the work; and what tracing cost, as 1 - the
   [traced] loop's rate over the untraced one's. *)
let loop_layers ~(untraced : run) ~cpu_s ~(traced : run) : metric list =
  [
    ("latency.p50_ms", "ms", Stats.median untraced.lat_ms);
    ("latency.p99_ms", "ms", Stats.quantile untraced.lat_ms 0.99);
    ("host.reference_ms", "ms", untraced.reference_ms);
    ("process.cpu_ms_per_op", "ms", 1000.0 *. cpu_s /. float_of_int (n untraced));
    ("trace.overhead_frac", "fraction", 1.0 -. (ops_per_s traced /. ops_per_s untraced));
  ]

(* --- build side ------------------------------------------------------ *)

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median_time ~runs f = Stats.median (Array.init runs (fun _ -> snd (time f)))

(* Loader/partitioner seconds per document, then what it takes to
   write and read back [image] and the size of its parts. *)
let build_layers ~(loader : (string * float) list) ~(image : string) (engine : Engine.t) :
    metric list =
  let b = Engine.size_breakdown engine in
  let s name = List.assoc name loader in
  [
    ("loader.parse_s", "s", s "loader.parse");
    ("loader.build_containers_s", "s", s "loader.build_containers");
    ("partitioner.optimize_s", "s", s "partitioner.optimize");
    ("partitioner.search_s", "s", s "partitioner.search");
    ("repository.serialize_ms", "ms", 1000.0 *. median_time ~runs:5 (fun () -> Engine.save engine));
    ("repository.deserialize_ms", "ms",
     1000.0 *. median_time ~runs:5 (fun () -> Repository.deserialize image));
    ("repository.image_bytes", "bytes", float_of_int (String.length image));
    ("repository.tree_bytes", "bytes", float_of_int b.Repository.tree_bytes);
    ("repository.containers_bytes", "bytes", float_of_int b.Repository.containers_bytes);
    ("repository.models_bytes", "bytes", float_of_int b.Repository.models_bytes);
  ]

(* --- microbenchmarks ---------------------------------------------------- *)

(* Microseconds per call of [f i], over batches of 64 calls (i = 0, 1,
   ...) repeated for at least 0.1 s. *)
let us_per_call f =
  let t0 = now () and calls = ref 0 in
  while now () -. t0 < 0.1 do
    for i = !calls to !calls + 63 do
      f i
    done;
    calls := !calls + 64
  done;
  (now () -. t0) *. 1e6 /. float_of_int !calls

(* The structures a request navigates, measured alone on a freshly
   restored [engine] with the default 64 MiB pool and no read-ahead:
   query parsing, the BP tree, summary path matching, container block
   fetch and lookup, block decoding, and each XMark query (one round to
   warm, checked against [refs], then the median of three). *)
let micro ~seed ~(texts : string list) ~(refs : (string, Digest.t) Hashtbl.t) (engine : Engine.t) :
    metric list =
  Buffer_pool.set_budget ~bytes:(64 * 1024 * 1024);
  Container.set_prefetch_depth 0;
  let repo = Engine.repo engine in
  let rng = Inputs.rng ~seed 5 in
  let texts = Array.of_list texts in
  let parse_us =
    us_per_call (fun i -> ignore (Engine.parse_query texts.(i mod Array.length texts)))
  in
  let tree = repo.Repository.tree in
  let nodes = Array.init 4096 (fun _ -> 1 + Random.State.int rng (Structure_tree.node_count tree - 1)) in
  let mops f = 1.0 /. us_per_call (fun i -> ignore (Sys.opaque_identity (f nodes.(i land 4095)))) in
  let rec paths prefix (node : Summary.node) acc =
    List.fold_left
      (fun acc (k : Summary.node) ->
        let p = prefix @ [ `Child k.Summary.tag ] in
        paths p k (p :: acc))
      acc node.Summary.kids
  in
  let steps = Array.of_list (paths [] repo.Repository.summary.Summary.root []) in
  let match_us =
    us_per_call (fun i ->
        ignore (Sys.opaque_identity (Summary.match_steps repo.Repository.summary steps.(i mod Array.length steps))))
  in
  (* the container with the most blocks, and the person @id container *)
  let c =
    Array.fold_left
      (fun best c -> if Container.block_count c > Container.block_count best then c else best)
      repo.Repository.containers.(0) repo.Repository.containers
  in
  Buffer_pool.clear ();
  Array.iter (fun (h : Container.header) -> ignore (Container.get c h.Container.h_start)) (Container.headers c);
  let hit_us = us_per_call (fun _ -> ignore (Container.get c (Random.State.int rng (Container.length c)))) in
  let miss_us =
    us_per_call (fun _ ->
        let h = Container.header c (Random.State.int rng (Container.block_count c)) in
        Buffer_pool.invalidate ~uid:c.Container.uid;
        ignore (Container.get c h.Container.h_start))
  in
  let ids =
    Array.to_list repo.Repository.containers
    |> List.find (fun (c : Container.t) -> String.ends_with ~suffix:"/person/@id" c.Container.path)
  in
  let lookup_us =
    us_per_call (fun _ ->
        let key = Printf.sprintf "person%d" (Random.State.int rng (Container.length ids)) in
        ignore (Container.lookup_eq ids (Container.compress_constant ids key)))
  in
  let decode_mb_s =
    let bytes = ref 0 in
    let t0 = now () in
    Array.iter
      (fun (c : Container.t) ->
        Array.iter
          (fun (b : Container.block) ->
            ignore (Compress.Codec.decode_block ~count:b.Container.b_count b.Container.b_payload);
            bytes := !bytes + String.length b.Container.b_payload)
          c.Container.blocks)
      repo.Repository.containers;
    float_of_int !bytes /. 1e6 /. (now () -. t0)
  in
  Array.iter
    (fun (q : Xmark.Queries.query) ->
      let text = q.Xmark.Queries.text in
      check
        (match request engine text with
        | out -> Hashtbl.find_opt refs text = Some (Digest.string out)
        | exception _ -> false)
        ("wrong answer to " ^ q.Xmark.Queries.id))
    Inputs.xmark;
  let per_query =
    Array.to_list Inputs.xmark
    |> List.mapi (fun i (q : Xmark.Queries.query) ->
           let ms = Array.init 3 (fun _ -> 1000.0 *. snd (time (fun () -> request engine q.Xmark.Queries.text))) in
           (Printf.sprintf "executor.q%02d_ms" (i + 1), "ms", Stats.median ms))
  in
  [
    ("parser.parse_us", "us", parse_us);
    ("bp_tree.parent_mops", "Mop/s", mops (Structure_tree.parent tree));
    ("bp_tree.children_mops", "Mop/s", mops (Structure_tree.child_nodes tree));
    ("bp_tree.subtree_size_mops", "Mop/s", mops (Structure_tree.subtree_size tree));
    ("summary.match_steps_kops", "kop/s", 1000.0 /. match_us);
    ("container.fetch_hit_us", "us", hit_us);
    ("container.fetch_miss_us", "us", miss_us);
    ("container.lookup_eq_us", "us", lookup_us);
    ("codec.decode_mb_per_s", "MB/s", decode_mb_s);
  ]
  @ per_query
