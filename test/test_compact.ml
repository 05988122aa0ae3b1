(* Adaptive block sizing and online compaction: block-size planning and
   clamping, reblocking invariants, every rebuild leaving the container
   it replaces untouched, the adaptive-sizing
   serialization extension (flags bit 3), per-container buffer-pool
   invalidation accounting, the compactor's copy-on-write container
   swap (including under genuinely concurrent serve clients),
   profile-report consumption, and the drift-triggered auto-compaction
   loop. *)

open Xquec_core
module Obs = Xquec_obs

let with_fresh_telemetry f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset (fun () -> Obs.with_enabled f)

(* Compaction mutates the repository, so every test loads its own
   engine from the shared generated document. *)
let xmark_xml = lazy (Xmark.Xmlgen.generate ~scale:0.05 ())
let fresh_engine () = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml)

(* A bigger document for the test that needs low eq selectivity
   (1 match among > 20 candidates) to trip the shrink rule, and an @id
   container (1510 bytes) that spans two blocks at the shrunk size. *)
let xmark_xml_big = lazy (Xmark.Xmlgen.generate ~scale:0.5 ())

let ids_path = "/site/people/person/@id"
let names_path = "/site/people/person/name/#text"

(* The one container of the small document past the 1 KiB block-size
   floor: 3751 bytes in 7 records. *)
let desc_path = "/site/open_auctions/open_auction/annotation/description/text/#text"

let container_of repo path =
  match Storage.Repository.find_container_by_path repo path with
  | Some c -> c
  | None -> Alcotest.failf "no container with path %s" path

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go k = k + lb <= ls && (String.sub s k lb = sub || go (k + 1)) in
  go 0

(* Run one query and return its serialized result (the bytes a serve
   client would receive, minus the trailing newline). *)
let answer engine text =
  (Engine.request engine { (Engine.plain text) with record = true }).out

(* ------------------------------------------------------------------ *)
(* Block-size picking: Compactor.plan, the one rule, and its clamp     *)
(* ------------------------------------------------------------------ *)

let test_pick_and_clamp () =
  Alcotest.(check int) "clamp floor" 1024 (Storage.Container.clamp_block_size 10);
  Alcotest.(check int) "clamp ceiling" 262144
    (Storage.Container.clamp_block_size 10_000_000);
  Alcotest.(check int) "clamp identity" 8192 (Storage.Container.clamp_block_size 8192);
  let repo = Engine.repo (fresh_engine ()) in
  let names = container_of repo names_path in
  let pick path factor = Storage.Compactor.plan repo [ (path, factor) ] in
  Alcotest.(check int) "names start at the default size" 16384
    names.Storage.Container.block_size;
  (* names is one block that fits in one block at every size: re-blocking
     it would rewrite the same block *)
  List.iter
    (fun f ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "one fitting block: factor %g dropped" f)
        [] (pick names_path f))
    [ 4.0; 1e300; 0.25; 1e-300 ];
  (* the descriptions, re-blocked at 2 KiB, span several blocks *)
  let desc = container_of repo desc_path in
  let id = desc.Storage.Container.id in
  let r = Storage.Compactor.compact_container repo ~id ~block_size:2048 in
  Alcotest.(check bool) "descriptions span several blocks" true
    (r.Storage.Compactor.c_blocks_after > 1);
  Alcotest.(check (list (pair int int))) "factor 4 scales the size" [ (id, 8192) ]
    (pick desc_path 4.0);
  (* a huge factor must not overflow the integer size into the floor *)
  Alcotest.(check (list (pair int int))) "a huge factor hits the ceiling" [ (id, 262144) ]
    (pick desc_path 1e300);
  Alcotest.(check (list (pair int int))) "a tiny factor hits the floor" [ (id, 1024) ]
    (pick desc_path 1e-300);
  List.iter
    (fun f ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "factor %g dropped" f)
        [] (pick desc_path f))
    [ Float.infinity; Float.nan; Float.neg_infinity; 0.0; -2.0; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Reblocking                                                          *)
(* ------------------------------------------------------------------ *)

let test_reblock_preserves_records () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let c = container_of repo names_path in
  let dump_before = Storage.Container.dump c in
  let blocks_before = Storage.Container.block_count c in
  let probe = Storage.Container.compress_constant c (fst (List.hd dump_before)) in
  let hits_before = List.length (Storage.Container.lookup_eq c probe) in
  let small = Storage.Container.reblocked c ~block_size:64 in
  Alcotest.(check bool) "smaller blocks mean more blocks" true
    (Storage.Container.block_count small > blocks_before);
  Alcotest.(check int) "block_size recorded" 64 small.Storage.Container.block_size;
  Alcotest.(check bool) "a fresh pool uid" true
    (small.Storage.Container.uid <> c.Storage.Container.uid);
  Alcotest.(check int) "reblock keeps the epoch" 0 small.Storage.Container.compaction_epoch;
  Alcotest.(check (list (pair string int))) "record sequence preserved" dump_before
    (Storage.Container.dump small);
  Alcotest.(check int) "lookup_eq unchanged" hits_before
    (List.length (Storage.Container.lookup_eq small probe));
  Alcotest.(check int) "the original keeps its blocks" blocks_before
    (Storage.Container.block_count c);
  (* growing back coalesces again *)
  let big = Storage.Container.reblocked small ~block_size:1_000_000 in
  Alcotest.(check int) "one big block" 1 (Storage.Container.block_count big);
  Alcotest.(check (list (pair string int))) "still the same records" dump_before
    (Storage.Container.dump big)

(* The one path that rebuilds a container after load (the compactor,
   which every block-size change goes through) builds a fresh container
   and swaps it into the repository slot: the container a reader took
   before the rebuild still dumps the same pairs, and the slot holds a
   container with another uid. *)
let check_rebuild_copies ~what repo id rebuild =
  let old = Storage.Repository.container repo id in
  let before = Storage.Container.dump old in
  rebuild ();
  Alcotest.(check (list (pair string int))) (what ^ ": the old container is unchanged") before
    (Storage.Container.dump old);
  Alcotest.(check bool) (what ^ ": the slot holds a fresh uid") true
    ((Storage.Repository.container repo id).Storage.Container.uid <> old.Storage.Container.uid)

let test_rebuilds_copy () =
  with_fresh_telemetry @@ fun () ->
  let repo = Engine.repo (fresh_engine ()) in
  let names = (container_of repo names_path).Storage.Container.id in
  check_rebuild_copies ~what:"Compactor.compact_container" repo names (fun () ->
      ignore (Storage.Compactor.compact_container repo ~id:names ~block_size:2048))

(* ------------------------------------------------------------------ *)
(* Serialization: the adaptive-sizing extension (flags bit 3)          *)
(* ------------------------------------------------------------------ *)

let test_block_size_epoch_roundtrip () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name" in
  let before = answer engine q in
  (* an untouched repository re-saves without the extension: twice
     through serialize/deserialize is byte-stable *)
  let image0 = Storage.Repository.serialize repo in
  Alcotest.(check string) "default sizes re-save byte-identically"
    (Digest.to_hex (Digest.string image0))
    (Digest.to_hex
       (Digest.string (Storage.Repository.serialize (Storage.Repository.deserialize image0))));
  (* compact one container: block size and epoch must survive the disk *)
  let id = (container_of repo ids_path).Storage.Container.id in
  let r = Storage.Compactor.compact_container repo ~id ~block_size:2048 in
  Alcotest.(check int) "result epoch" 1 r.Storage.Compactor.c_epoch;
  let image1 = Storage.Repository.serialize repo in
  let repo' = Storage.Repository.deserialize image1 in
  let c' = container_of repo' ids_path in
  Alcotest.(check int) "block_size survives save/load" 2048
    c'.Storage.Container.block_size;
  Alcotest.(check int) "compaction_epoch survives save/load" 1
    c'.Storage.Container.compaction_epoch;
  let c_other = container_of repo' names_path in
  Alcotest.(check int) "untouched container keeps the default"
    (Storage.Container.default_block_size ())
    c_other.Storage.Container.block_size;
  Alcotest.(check string) "adaptive image re-saves byte-identically"
    (Digest.to_hex (Digest.string image1))
    (Digest.to_hex (Digest.string (Storage.Repository.serialize repo')));
  let engine' = Engine.restore image1 in
  Alcotest.(check string) "query identical across save/load" before (answer engine' q)

(* ------------------------------------------------------------------ *)
(* Buffer-pool invalidation accounting                                 *)
(* ------------------------------------------------------------------ *)

(* Whether fetching [c]'s first block is a pool hit, read from a
   ledger opened around that one fetch. A miss decodes the block and
   admits it, so a check for absence must come last. *)
let first_block_hits (c : Storage.Container.t) =
  Obs.Ledger.with_ledger @@ fun l ->
  ignore (Storage.Container.fetch_blocks c ~b0:0 ~b1:0);
  Alcotest.(check int) "one fetch" 1 (l.Obs.Ledger.hits + l.Obs.Ledger.misses);
  l.Obs.Ledger.hits = 1

(* A repository's heat reading follows its live containers: each
   compaction's swap takes the replaced container's row out of the
   reading, and a straggler still reading the old container charges
   only that old row. *)
let test_heat_rows_follow_live_containers () =
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let reading () = Obs.Heat.snapshot (Storage.Repository.heat_rows repo) in
  let has uid = List.exists (fun (s : Obs.Heat.stat) -> s.Obs.Heat.uid = uid) (reading ()) in
  let first = container_of repo names_path in
  let replaced =
    List.map
      (fun size ->
        let old = container_of repo names_path in
        ignore
          (Storage.Compactor.compact_container repo ~id:old.Storage.Container.id ~block_size:size);
        old)
      [ 2048; 4096; 8192; 2048; 4096 ]
  in
  Alcotest.(check int) "one row per container"
    (Array.length repo.Storage.Repository.containers)
    (List.length (reading ()));
  let touches () =
    List.fold_left (fun acc (s : Obs.Heat.stat) -> acc + s.Obs.Heat.touches) 0 (reading ())
  in
  let t0 = touches () and own0 = first.Storage.Container.heat.Obs.Ledger.c_touches in
  ignore (Storage.Container.scan first);
  Alcotest.(check int) "a straggler read adds nothing to the reading" t0 (touches ());
  Alcotest.(check bool) "the straggler charged its own row" true
    (first.Storage.Container.heat.Obs.Ledger.c_touches > own0);
  List.iter
    (fun (c : Storage.Container.t) ->
      Alcotest.(check bool) "replaced uid has no row" false (has c.Storage.Container.uid))
    replaced;
  Alcotest.(check bool) "live uid has a row" true
    (has (container_of repo names_path).Storage.Container.uid)

let test_invalidate_container_accounting () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let c1 = container_of repo ids_path in
  let c2 = container_of repo names_path in
  ignore (Storage.Container.scan c1);
  ignore (Storage.Container.scan c2);
  Alcotest.(check bool) "c2 resident before" true (first_block_hits c2);
  Storage.Buffer_pool.reset_stats ();
  let n = Storage.Buffer_pool.invalidate_container ~uid:c1.Storage.Container.uid in
  Alcotest.(check int) "every resident block released"
    (Storage.Container.block_count c1) n;
  let s = Storage.Buffer_pool.snapshot () in
  Alcotest.(check int) "booked as invalidations" n s.Storage.Buffer_pool.s_invalidations;
  Alcotest.(check int) "not booked as capacity evictions" 0
    s.Storage.Buffer_pool.s_evictions;
  Alcotest.(check bool) "other container untouched" true (first_block_hits c2);
  Alcotest.(check int) "second invalidation finds nothing" 0
    (Storage.Buffer_pool.invalidate_container ~uid:c1.Storage.Container.uid);
  Alcotest.(check bool) "c1 no longer resident" false (first_block_hits c1)

(* ------------------------------------------------------------------ *)
(* Compactor: plan + copy-on-write swap                                *)
(* ------------------------------------------------------------------ *)

let test_compactor_swap_and_plan () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let q = "document(\"auction.xml\")/site/open_auctions/open_auction/annotation/description/text" in
  let before = answer engine q in
  let old_c = container_of repo desc_path in
  let old_uid = old_c.Storage.Container.uid in
  let r =
    Storage.Compactor.compact_container repo ~id:old_c.Storage.Container.id
      ~block_size:2048
  in
  let fresh = Storage.Repository.container repo old_c.Storage.Container.id in
  Alcotest.(check bool) "swap installed a fresh pool identity" true
    (fresh.Storage.Container.uid <> old_uid);
  Alcotest.(check int) "fresh container epoch" 1
    fresh.Storage.Container.compaction_epoch;
  Alcotest.(check int) "fresh container block size" 2048
    fresh.Storage.Container.block_size;
  Alcotest.(check int) "result records the path change" 2048
    r.Storage.Compactor.c_block_size_after;
  Alcotest.(check string) "result names the container" desc_path
    r.Storage.Compactor.c_path;
  Alcotest.(check string) "query byte-identical after the swap" before (answer engine q);
  Alcotest.(check (list (pair string int))) "old and fresh hold the same records"
    (Storage.Container.dump old_c)
    (Storage.Container.dump fresh);
  let s = Storage.Compactor.snapshot repo in
  Alcotest.(check int) "one compaction counted" 1 s.Storage.Compactor.k_compactions;
  (match Obs.Json.member "recent" (Storage.Compactor.status_json repo) with
  | Some (Obs.Json.List (newest :: _)) ->
    Alcotest.(check (option string)) "recent ring sees it" (Some desc_path)
      (Option.bind (Obs.Json.member "container" newest) Obs.Json.to_str)
  | _ -> Alcotest.fail "recent ring empty");
  (* plan: keep-factors, unknown paths and no-ops are dropped; real
     factors scale the current size under the clamp (the descriptions
     span several 2 KiB blocks) *)
  let targets =
    Storage.Compactor.plan repo
      [ (desc_path, 0.25); ("/no/such/container", 0.25); (names_path, 1.0) ]
  in
  Alcotest.(check (list (pair int int))) "plan keeps only the actionable target"
    [ (old_c.Storage.Container.id, 1024) ]
    targets;
  Alcotest.(check bool) "empty request refuses" false
    (Storage.Compactor.request repo ~targets:[]);
  (* the request runs on the caller and completes before returning *)
  Alcotest.(check bool) "request starts" true (Storage.Compactor.request repo ~targets);
  Alcotest.(check bool) "inline request already finished" false (Storage.Compactor.busy repo);
  Alcotest.(check int) "requested compaction applied" 1024
    (Storage.Repository.container repo old_c.Storage.Container.id)
      .Storage.Container.block_size;
  Alcotest.(check string) "query still byte-identical" before (answer engine q);
  let status = Obs.Json.to_string (Storage.Compactor.status_json repo) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("status has " ^ needle) true (contains status needle))
    [ "\"busy\":false"; "\"compactions\":2"; "\"recent\":["; desc_path ]

(* ------------------------------------------------------------------ *)
(* Mid-run reconfigure under concurrent serve clients                  *)
(* ------------------------------------------------------------------ *)

let test_midrun_swap_under_concurrent_clients () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  Plan_cache.set_capacity 32;
  Plan_cache.clear ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let query_of client =
    Printf.sprintf
      "document(\"auction.xml\")/site/people/person[@id = \"person%d\"]/name" (client mod 3)
  in
  (* expected bytes per client, computed before any swap *)
  Test_serve.with_server engine ~config:{ Test_serve.config with workers = 3; max_inflight = 64 }
  @@ fun server ->
  let expected =
    Array.init 3 (fun k ->
        let r = Serve.run_query server (query_of k) in
        Alcotest.(check int) "warmup status" 200 r.Obs.Expo.status;
        r.Obs.Expo.body)
  in
  let port = Serve.port server in
  let id = (container_of repo ids_path).Storage.Container.id in
  (* a dedicated domain swapping the container back and forth while the
     clients hammer it *)
  let swapper =
    Domain.spawn (fun () ->
        for i = 1 to 6 do
          let block_size = if i mod 2 = 1 then 2048 else 16384 in
          ignore (Storage.Compactor.compact_container repo ~id ~block_size);
          Unix.sleepf 0.002
        done)
  in
  let outcomes =
    Obs.Hammer.drive ~port ~clients:9 ~requests_per_client:6
      ~target:(fun client _seq -> ("POST", "/query", query_of client))
      ()
  in
  Domain.join swapper;
  Alcotest.(check int) "every request answered" (9 * 6) (List.length outcomes);
  List.iter
    (fun (o : Obs.Hammer.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "client %d seq %d status" o.Obs.Hammer.o_client o.Obs.Hammer.o_seq)
        200 o.Obs.Hammer.o_reply.Obs.Hammer.r_status;
      Alcotest.(check string)
        (Printf.sprintf "client %d seq %d bytes identical across swaps"
           o.Obs.Hammer.o_client o.Obs.Hammer.o_seq)
        expected.(o.Obs.Hammer.o_client mod 3)
        o.Obs.Hammer.o_reply.Obs.Hammer.r_body)
    outcomes;
  Alcotest.(check int) "six swaps happened" 6
    (Storage.Compactor.snapshot repo).Storage.Compactor.k_compactions;
  Alcotest.(check int) "epoch counted every swap" 6
    (Storage.Repository.container repo id).Storage.Container.compaction_epoch;
  (* the serve surface reports the compactor *)
  let r = Obs.Hammer.request ~port "/compact" in
  Alcotest.(check int) "/compact status" 200 r.Obs.Hammer.r_status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/compact has " ^ needle) true
        (contains r.Obs.Hammer.r_body needle))
    [ "\"busy\":false"; "\"compactions\":6"; ids_path ]

(* ------------------------------------------------------------------ *)
(* Profile-report consumption                                          *)
(* ------------------------------------------------------------------ *)

let test_recommendations_of_report () =
  let report =
    Obs.Json.parse
      {|{"records": 4, "recommendations": [
          {"container": "/a/@id", "action": "shrink", "factor": 0.25, "reason": "x"},
          {"container": "/a/b", "action": "keep", "factor": 1.0, "reason": "y"},
          {"container": "/a/c", "action": "grow", "factor": 4.0, "reason": "z"},
          {"container": "/a/d", "action": "shrink", "factor": -1.0, "reason": "bad"},
          {"action": "grow", "factor": 4.0}]}|}
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "keep, bad factors and malformed entries dropped"
    [ ("/a/@id", 0.25); ("/a/c", 4.0) ]
    (Obs.Profile.recommendations_of_report report);
  Alcotest.(check (list (pair string (float 0.0)))) "no recommendations key" []
    (Obs.Profile.recommendations_of_report (Obs.Json.parse "{}"))

(* ------------------------------------------------------------------ *)
(* Drift-sustained auto-compaction                                     *)
(* ------------------------------------------------------------------ *)

let test_auto_compact_on_sustained_drift () =
  with_fresh_telemetry @@ fun () ->
  (* the bigger document keeps eq selectivity on @id under the 5 %
     shrink threshold (1 match among the 180 @id values) *)
  (* 4 KiB blocks: the shrink proposes the 1 KiB floor, which the
     1510-byte @id container does not fit in one block *)
  let default_size = Storage.Container.default_block_size () in
  Storage.Container.set_default_block_size 4096;
  Fun.protect ~finally:(fun () -> Storage.Container.set_default_block_size default_size)
  @@ fun () ->
  let engine = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml_big) in
  let repo = Engine.repo engine in
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name" in
  let before = answer engine q in
  (* declared mix: scans elsewhere; observed mix: pure selective point
     lookups on @id — maximal drift, low selectivity *)
  let baseline =
    Engine.declared_fingerprint engine
      [ "for $i in document(\"auction.xml\")/site/regions/europe/item return $i/name" ]
  in
  Test_serve.with_server engine
    ~config:
      { Test_serve.config with watch_window = 3600.0; baseline = Some baseline; auto_compact = true }
  @@ fun server ->
  for k = 0 to 4 do
    ignore
      (Serve.run_query server
         (Printf.sprintf
            "document(\"auction.xml\")/site/people/person[@id = \"person%d\"]/name" k))
  done;
  let now = Unix.gettimeofday () in
  let fired = ref false in
  for i = 1 to 3 do
    let _, trs = Serve.watch_tick ~now:(now +. float_of_int i) server in
    if
      List.exists
        (fun (t : Obs.Alert.transition) ->
          t.Obs.Alert.t_rule = "drift_sustained" && t.Obs.Alert.t_event = "fired")
        trs
    then fired := true
  done;
  Alcotest.(check bool) "drift_sustained fired" true !fired;
  (* the hook planned a shrink for the point-lookup container and ran
     it inline (sequential pool) *)
  let c = container_of repo ids_path in
  Alcotest.(check int) "auto-compaction shrank the hot container"
    (Storage.Container.clamp_block_size (Storage.Container.default_block_size () / 4))
    c.Storage.Container.block_size;
  Alcotest.(check int) "exactly one compaction epoch" 1
    c.Storage.Container.compaction_epoch;
  Alcotest.(check bool) "trigger counter bumped" true
    (Obs.Metrics.counter_value "serve.compactions_triggered" >= 1);
  Alcotest.(check string) "query byte-identical after the auto swap" before
    (answer engine q)

(* A container swapped while one evaluation context is reading it: the
   context keeps reading the container it first touched, so a writer
   that wrote before the swap writes the same bytes after it, and a
   serialization after the swap prints what it printed before. *)
let test_swap_between_reads_of_one_ctx () =
  let repo = Engine.repo (fresh_engine ()) in
  let desc = container_of repo desc_path in
  Alcotest.(check int) "descriptions start as one block" 1
    (Storage.Container.block_count desc);
  let q =
    Xquery.Parser.parse
      {|document("auction.xml")/site/open_auctions/open_auction/annotation/description|}
  in
  let items = Executor.run repo q in
  let expected = Executor.serialize repo items in
  let ctx = Exec_base.mk_ctx repo in
  let buf = Buffer.create 4096 in
  let w = Value_access.writer ctx buf in
  let write it =
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Value_access.add_item w it
  in
  write (List.hd items);
  ignore
    (Storage.Compactor.compact_container repo ~id:desc.Storage.Container.id ~block_size:1024);
  Alcotest.(check bool) "the swap split the descriptions" true
    (Storage.Container.block_count (container_of repo desc_path) > 1);
  List.iter write (List.tl items);
  Alcotest.(check string) "one ctx across the swap" expected (Buffer.contents buf);
  Alcotest.(check string) "run, swap, serialize" expected
    (Executor.serialize repo items);
  Alcotest.(check string) "run and serialize after the swap" expected
    (Executor.serialize repo (Executor.run repo q))

let suites =
  [
    ( "compact",
      [
        Alcotest.test_case "block-size pick + clamp." `Quick test_pick_and_clamp;
        Alcotest.test_case "reblock preserves records." `Quick
          test_reblock_preserves_records;
        Alcotest.test_case "rebuilds copy, never mutate." `Quick test_rebuilds_copy;
        Alcotest.test_case "block size + epoch round-trip." `Quick
          test_block_size_epoch_roundtrip;
        Alcotest.test_case "invalidate_container accounting." `Quick
          test_invalidate_container_accounting;
        Alcotest.test_case "heat rows follow live containers." `Quick
          test_heat_rows_follow_live_containers;
        Alcotest.test_case "compactor swap + plan." `Quick test_compactor_swap_and_plan;
        Alcotest.test_case "swap between reads of one ctx." `Quick
          test_swap_between_reads_of_one_ctx;
        Alcotest.test_case "mid-run swap under concurrent clients." `Quick
          test_midrun_swap_under_concurrent_clients;
        Alcotest.test_case "profile report consumption." `Quick
          test_recommendations_of_report;
        Alcotest.test_case "auto-compact on sustained drift." `Quick
          test_auto_compact_on_sustained_drift;
      ] );
  ]
