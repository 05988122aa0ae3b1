(* The four workloads; README.md says why each exists. Each runs in its
   own process and returns its metrics: the end-to-end ones, or with
   tracing the per-layer ones. Every metric has one definition, measured
   the same way in every workload. *)

open Xquec_core
open Storage
module L = Layers
module Json = Xquec_obs.Json

type ctx = {
  seed : int;
  seconds : float;
  scale : float;  (** XMark scale of the document the query workloads serve *)
  ingest_scale : float;  (** XMark scale of each document ingest compresses *)
  trace : bool;
  trace_out : string option;  (** chrome-trace file for the traced requests *)
}

let now = Unix.gettimeofday

(* A generator that stops once [seconds] have passed. *)
let for_seconds seconds (draw : unit -> int * string) : unit -> (int * string) option =
  let deadline = now () +. seconds in
  fun () -> if now () >= deadline then None else Some (draw ())

(* All twenty XMark queries per round, each round in a seeded shuffled
   order, until [stop rounds_started]. *)
let xmark_rounds rng ~(stop : int -> bool) : unit -> (int * string) option =
  let ids = Array.init (Array.length Inputs.xmark) Fun.id in
  let queue = ref [] and started = ref 0 in
  fun () ->
    if !queue = [] && not (stop !started) then begin
      Inputs.shuffle rng ids;
      queue := Array.to_list ids;
      incr started
    end;
    match !queue with
    | [] -> None
    | i :: rest ->
      queue := rest;
      Some (i, Inputs.xmark.(i).Xmark.Queries.text)

(* Set-up of an in-process workload: from image bytes in memory to an
   engine that answers. *)
let restore_setup ~host (image : string) : float * Engine.t =
  L.setup ~host ~stop:(fun _ -> Gc.full_major ()) (fun () -> Engine.restore image)

(* The per-layer metrics of an in-process request loop: a third of the
   time untraced, a third traced, then the build-side numbers and the
   microbenchmarks on a fresh restore. *)
let in_process_layers ctx ~host ~engine ~expect ~image ~loader ~texts ~xmark_refs
    (until : float -> unit -> (int * string) option) : L.metric list =
  let send = L.request engine in
  let u, cpu_s = L.untraced ~host ~expect send (until (ctx.seconds /. 3.0)) in
  let t, sp, s0, s1 = L.traced ?export:ctx.trace_out ~host ~expect send (until (ctx.seconds /. 3.0)) in
  L.request_layers t sp s0 s1
  @ L.loop_layers ~untraced:u ~cpu_s ~traced:t
  @ L.build_layers ~loader ~image engine
  @ L.micro ~seed:ctx.seed ~texts ~refs:xmark_refs (Engine.restore image)

(* The image a query workload serves, with its compression factor and
   the loader/partitioner seconds of its build. *)
let served_image (ctx : ctx) : string * float * (string * float) list =
  let image, facts = Inputs.image ~seed:ctx.seed ~scale:ctx.scale in
  L.check (List.assoc "dropped_spans" facts = 0.0) "trace spans dropped while building the image";
  (image, List.assoc "compression_factor" facts, facts)

(* --- ingest ------------------------------------------------------------ *)

(* ingest compresses documents seed .. seed+docs-1: with 8, the mean
   compression factor spreads by at most 0.26% over ten seeds, against
   0.55% with 4. *)
let docs = 8

let ingest (ctx : ctx) : L.metric list =
  let host = Host.create () in
  let xmls = Array.init docs (fun k -> Inputs.generate ~seed:(ctx.seed + k) ~scale:ctx.ingest_scale) in
  (* Each document once: its image must re-save byte-identically after
     a restore, and the first document's XMark answers must survive
     the restore. Only the first engine is kept. *)
  let first = ref None in
  let built =
    Array.mapi
      (fun k xml ->
        let engine, image = Inputs.compress xml in
        L.check
          (Engine.save (Engine.restore image) = image)
          (Printf.sprintf "save -> restore -> save changed the image of document %d" (ctx.seed + k));
        if k = 0 then first := Some engine;
        (Engine.compression_factor engine, image))
      xmls
  in
  let cf = Stats.mean (Array.map fst built) in
  let refs = Inputs.references (Option.get !first) Inputs.workload in
  first := None;
  let images = Array.map snd built in
  let image = images.(0) in
  let restored = Engine.restore image in
  Plan_cache.set_capacity 128;
  let rng = Inputs.rng ~seed:ctx.seed 2 in
  ignore (L.closed_loop ~host ~expect:refs (L.request restored) (xmark_rounds rng ~stop:(fun k -> k >= 1)));
  (* Then the same documents again, in turn, each compressed and saved
     as one operation whose image must come out byte-identical. *)
  let expect = Hashtbl.create docs in
  Array.iteri (fun k image -> Hashtbl.replace expect (string_of_int k) (Digest.string image)) images;
  let compress key = snd (Inputs.compress xmls.(int_of_string key)) in
  let in_turn seconds =
    let k = ref (-1) in
    for_seconds seconds (fun () ->
        incr k;
        (!k mod docs, string_of_int (!k mod docs)))
  in
  if not ctx.trace then begin
    let r = L.closed_loop ~host ~expect compress (in_turn ctx.seconds) in
    let setup_s, _ = restore_setup ~host image in
    L.end_to_end ~setup_s ~peak_rss_mb:(Http.peak_rss_mb "self") ~cf r
  end
  else begin
    let u, cpu_s = L.untraced ~host ~expect compress (in_turn (ctx.seconds /. 3.0)) in
    let spans = Spans.create () in
    Spans.start ();
    (* a document records more spans than a query: drain after each *)
    let traced_compress key =
      let image = compress key in
      Spans.drain spans;
      image
    in
    let t = L.closed_loop ~host ~expect traced_compress (in_turn (ctx.seconds /. 3.0)) in
    Spans.stop ();
    L.check (spans.Spans.dropped = 0) "trace spans dropped";
    let loader =
      List.map
        (fun name -> (name, Spans.total_ms spans name /. 1000.0 /. float_of_int (L.n t)))
        Inputs.spans_of_build
    in
    let tq, sp, s0, s1 =
      L.traced ?export:ctx.trace_out ~host ~expect:refs (L.request restored)
        (xmark_rounds rng ~stop:(fun k -> k >= 3))
    in
    L.request_layers tq sp s0 s1
    @ L.loop_layers ~untraced:u ~cpu_s ~traced:t
    @ L.build_layers ~loader ~image restored
    @ L.micro ~seed:ctx.seed ~texts:Inputs.workload ~refs (Engine.restore image)
  end

(* --- xmark_warm --------------------------------------------------------- *)

let xmark_warm (ctx : ctx) : L.metric list =
  let image, cf, facts = served_image ctx in
  let host = Host.create () in
  let setup_s, engine = restore_setup ~host image in
  let refs = Inputs.references (Engine.restore image) Inputs.workload in
  Buffer_pool.clear ();
  Plan_cache.set_capacity 128;
  let rng = Inputs.rng ~seed:ctx.seed 2 in
  ignore (L.closed_loop ~host ~expect:refs (L.request engine) (xmark_rounds rng ~stop:(fun k -> k >= 1)));
  let until seconds =
    let deadline = now () +. seconds in
    xmark_rounds rng ~stop:(fun _ -> now () >= deadline)
  in
  if not ctx.trace then
    L.end_to_end ~setup_s ~peak_rss_mb:(Http.peak_rss_mb "self") ~cf
      (L.closed_loop ~host ~expect:refs (L.request engine) (until ctx.seconds))
  else
    in_process_layers ctx ~host ~engine ~expect:refs ~image ~loader:facts ~texts:Inputs.workload
      ~xmark_refs:refs until

(* --- point_cold --------------------------------------------------------- *)

(* A few lookups of every template, for the parser microbenchmark. *)
let template_texts (ts : Inputs.template array) =
  List.init 49 (fun i ->
      let t = ts.(i mod Array.length ts) in
      t.Inputs.text (i mod t.Inputs.population))

let point_cold (ctx : ctx) : L.metric list =
  let image, cf, facts = served_image ctx in
  let host = Host.create () in
  let setup_s, engine = restore_setup ~host image in
  let ts = Inputs.templates ctx.scale in
  let reference = Engine.restore image in
  let refs = Inputs.references reference (Inputs.all_texts ts) in
  let xmark_refs = if ctx.trace then Inputs.references reference Inputs.workload else refs in
  Buffer_pool.clear ();
  (* the serve defaults, but a pool ~10x smaller than the lookups' working set *)
  Buffer_pool.set_budget ~bytes:16384;
  Container.set_prefetch_depth 4;
  Plan_cache.set_capacity 128;
  let draw = Inputs.uniform ts (Inputs.rng ~seed:ctx.seed 1) in
  let until seconds = for_seconds seconds draw in
  ignore (L.closed_loop ~host ~expect:refs (L.request engine) (until (Float.min 1.0 (ctx.seconds /. 10.0))));
  if not ctx.trace then
    L.end_to_end ~setup_s ~peak_rss_mb:(Http.peak_rss_mb "self") ~cf
      (L.closed_loop ~host ~expect:refs (L.request engine) (until ctx.seconds))
  else
    in_process_layers ctx ~host ~engine ~expect:refs ~image ~loader:facts ~texts:(template_texts ts)
      ~xmark_refs until

(* --- http_point ---------------------------------------------------------- *)

(* One query over HTTP: the body of a 200 answer, else an exception. *)
let send ~port (text : string) : string =
  match Http.request ~port ~meth:"POST" ~body:text "/query" with
  | 200, body -> body
  | status, _ -> failwith (Printf.sprintf "HTTP %d" status)

let stats ~port : Json.t =
  match Http.request ~port "/stats" with
  | 200, body -> Json.parse body
  | status, _ -> failwith (Printf.sprintf "GET /stats answered %d" status)

let stat (j : Json.t) (path : string list) : float =
  let rec go j = function
    | [] -> Option.value ~default:0.0 (Json.to_float j)
    | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go j path

(* Where the build puts xquec: bin/ beside this executable's bench/e2e/. *)
let xquec_exe () =
  let up = Filename.dirname in
  Filename.concat (up (up (up Sys.executable_name))) "bin/xquec.exe"

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let http_point (ctx : ctx) : L.metric list =
  let image, cf, facts = served_image ctx in
  let host = Host.create () in
  (* the image file and server logs live in a scratch directory inside
     the checkout *)
  let tmp = Printf.sprintf "_gate/e2e-tmp-%d" (Unix.getpid ()) in
  Inputs.mkdir_p tmp;
  Fun.protect ~finally:(fun () -> remove tmp) @@ fun () ->
  let file = Filename.concat tmp "image.xqc" in
  Out_channel.with_open_bin file (fun oc -> output_string oc image);
  let spawned = ref 0 in
  let spawn () =
    incr spawned;
    Http.spawn ~exe:(xquec_exe ()) ~image:file ~log:(Filename.concat tmp (Printf.sprintf "serve-%d.log" !spawned))
  in
  (* set-up: spawning the server until /healthz answers *)
  let setup_s, server = L.setup ~host ~stop:Http.stop spawn in
  Fun.protect ~finally:(fun () -> Http.stop server) @@ fun () ->
  let port = server.Http.port in
  let ts = Inputs.templates ctx.scale in
  let reference = Engine.restore image in
  let expect = Inputs.references ~suffix:"\n" reference (Inputs.all_texts ts) in
  (* the same seeded draws for the HTTP loop and the in-process replay *)
  let draws () = Inputs.zipf ~seed:ctx.seed ts (Inputs.rng ~seed:ctx.seed 4) in
  let draw = draws () in
  let warm = ref 200 in
  ignore
    (L.closed_loop ~host ~expect (send ~port) (fun () ->
         decr warm;
         if !warm < 0 then None else Some (draw ())));
  if not ctx.trace then
    L.end_to_end ~setup_s ~peak_rss_mb:(Http.peak_rss_mb (string_of_int server.Http.pid)) ~cf
      (L.closed_loop ~host ~expect (send ~port) (for_seconds ctx.seconds draw))
  else begin
    let j0 = stats ~port and cpu0 = Http.cpu_s server.Http.pid in
    let u = L.closed_loop ~host ~expect (send ~port) (for_seconds (ctx.seconds /. 3.0) draw) in
    let j1 = stats ~port and cpu1 = Http.cpu_s server.Http.pid in
    let delta path = stat j1 path -. stat j0 path in
    let served = delta [ "histograms"; "serve.query_ms"; "count" ] in
    let engine_ms = Stats.ratio (delta [ "histograms"; "serve.query_ms"; "sum" ]) served in
    let hits = delta [ "counters"; "serve.plan_cache.hits" ] in
    let http =
      [
        ("engine.ms_per_request", engine_ms);
        ("request.residual_ms", Stats.mean u.L.lat_ms -. engine_ms);
        ("plan_cache.hit_ratio", Stats.ratio hits (hits +. delta [ "counters"; "serve.plan_cache.misses" ]));
        ("latency.p50_ms", Stats.median u.L.lat_ms);
        ("latency.p99_ms", Stats.quantile u.L.lat_ms 0.99);
        ("host.reference_ms", u.L.reference_ms);
        ("process.cpu_ms_per_op", Stats.ratio (1000.0 *. (cpu1 -. cpu0)) served);
      ]
    in
    (* the engine layers: the same draws replayed in-process under the
       serve configuration *)
    let replay = Engine.restore image in
    let refs = Inputs.references reference (Inputs.all_texts ts) in
    let xmark_refs = Inputs.references reference Inputs.workload in
    Buffer_pool.clear ();
    Container.set_prefetch_depth 4;
    Plan_cache.set_capacity 128;
    let draw = draws () in
    in_process_layers ctx ~host ~engine:replay ~expect:refs ~image ~loader:facts ~texts:(template_texts ts)
      ~xmark_refs (fun seconds -> for_seconds seconds draw)
    |> List.map (fun (name, unit_, v) -> (name, unit_, Option.value ~default:v (List.assoc_opt name http)))
  end

let all = [ ("ingest", ingest); ("xmark_warm", xmark_warm); ("point_cold", point_cold); ("http_point", http_point) ]
