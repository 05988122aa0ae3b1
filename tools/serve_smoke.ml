(* Serving smoke check (`make serve-smoke`): start the real `xquec
   serve` binary against a small repository, fire a burst of concurrent
   requests at it through Xquec_obs.Hammer (the curl-equivalent),
   replay a shifted query mix until the drift watchdog raises
   [drift_sustained] on /alerts and in the alert log, and assert a
   clean shutdown on SIGTERM. A second server then boots with
   [--watch-window 0]: it must answer queries while /watch reports
   ["enabled": false] and /alerts lists no rules. The first server runs with a query log
   ([XQUEC_QUERY_LOG]): the pool counters on /metrics must move over
   the concurrent burst by exactly the sums of the log records written
   in between, since both count the queries' ledgers. This is the one place the whole serving
   stack — CLI flag parsing, worker fan-out, admission, plan cache,
   metrics endpoints, watchdog ticker, signal-driven teardown — runs as
   an operator would run it, process boundary included.

     serve_smoke XQUEC_EXE INPUT.xqc

   Exit 0 on success; nonzero with a message on the first failed
   assertion. *)

let die fmt = Fmt.kstr (fun s -> prerr_endline ("serve_smoke: " ^ s); exit 1) fmt

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* Start [argv] with [env] and read the port it announces on its first
   line: "xquec serve: listening on http://127.0.0.1:NNNN (endpoints: ...)". *)
let start_server argv env =
  let out_read, out_write = Unix.pipe () in
  let pid = Unix.create_process_env argv.(0) argv env Unix.stdin out_write Unix.stderr in
  Unix.close out_write;
  let ic = Unix.in_channel_of_descr out_read in
  let port =
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec find () =
      if Unix.gettimeofday () > deadline then die "server did not announce a port in 30s";
      match input_line ic with
      | line -> (
        match
          let n = String.length line in
          let rec last_colon i = if i < 0 then None else if line.[i] = ':' then Some i else last_colon (i - 1) in
          if n > 0 && String.length line > 20
             && (try String.sub line 0 26 = "xquec serve: listening on " with _ -> false)
          then
            (* strip everything after the port number *)
            let upto = match String.index_opt line '(' with Some i -> i | None -> n in
            let head = String.trim (String.sub line 0 upto) in
            match last_colon (String.length head - 1) with
            | Some c ->
              int_of_string_opt (String.trim (String.sub head (c + 1) (String.length head - c - 1)))
            | None -> None
          else None
        with
        | Some p -> p
        | None -> find ())
      | exception End_of_file -> die "server exited before announcing a port"
    in
    find ()
  in
  (pid, ic, port)

(* SIGTERM, then the process must go away cleanly. *)
let shutdown pid ic =
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigterm -> ()
  | _, Unix.WEXITED 0 -> ()
  | _, status ->
    let describe = function
      | Unix.WEXITED c -> Fmt.str "exited %d" c
      | Unix.WSIGNALED s -> Fmt.str "killed by signal %d" s
      | Unix.WSTOPPED s -> Fmt.str "stopped by signal %d" s
    in
    die "unclean shutdown: %s" (describe status));
  close_in_noerr ic

let () =
  let exe, input =
    match Sys.argv with
    | [| _; exe; input |] -> (exe, input)
    | _ -> die "usage: serve_smoke XQUEC_EXE INPUT.xqc"
  in
  (* declared workload: the same point query the burst replays, so the
     watchdog sees drift ~0 until the shifted phase starts *)
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" in
  let workload_file = Filename.temp_file "serve_smoke_workload" ".xq" in
  let alerts_log = Filename.temp_file "serve_smoke_alerts" ".jsonl" in
  let query_log = Filename.temp_file "serve_smoke_queries" ".jsonl" in
  let oc = open_out workload_file in
  output_string oc (q ^ "\n");
  close_out oc;
  (* port 0: the server picks a free port and prints it; modest worker
     and admission settings so the flags themselves are exercised; a
     sub-second watch window so the drift alert can fire within the
     smoke budget *)
  let argv =
    [|
      exe; "serve"; input; "-p"; "0"; "--serve-workers"; "2"; "--max-inflight"; "32";
      "--plan-cache"; "16"; "--watch-window"; "0.2"; "--drift-alert"; "0.5";
      "--alerts-log"; alerts_log; "-w"; workload_file;
    |]
  in
  let env = Array.append (Unix.environment ()) [| "XQUEC_QUERY_LOG=" ^ query_log |] in
  let pid, ic, port = start_server argv env in
  Printf.printf "serve_smoke: server up on port %d\n%!" port;
  (* health + one sequential query first, then the concurrent burst *)
  let h = Xquec_obs.Hammer.request ~port "/healthz" in
  if h.Xquec_obs.Hammer.r_status <> 200 then die "healthz returned %d" h.Xquec_obs.Hammer.r_status;
  if not (contains h.Xquec_obs.Hammer.r_body "\"status\":\"ok\"") then
    die "healthz is not the readiness JSON: %s" h.Xquec_obs.Hammer.r_body;
  if not (contains h.Xquec_obs.Hammer.r_body "\"watchdog\"") then
    die "healthz readiness JSON lacks the watchdog section: %s" h.Xquec_obs.Hammer.r_body;
  let r = Xquec_obs.Hammer.request ~port ~meth:"POST" ~body:q "/query" in
  if r.Xquec_obs.Hammer.r_status <> 200 then
    die "query returned %d: %s" r.Xquec_obs.Hammer.r_status r.Xquec_obs.Hammer.r_body;
  let reference = r.Xquec_obs.Hammer.r_body in
  (* the accounting baseline: pool counters and the log written so far *)
  let pool_series = [ "hits"; "misses"; "latch_waits" ] in
  let scrape () =
    let m = Xquec_obs.Hammer.request ~port "/metrics" in
    if m.Xquec_obs.Hammer.r_status <> 200 then
      die "/metrics returned %d" m.Xquec_obs.Hammer.r_status;
    let lines = String.split_on_char '\n' m.Xquec_obs.Hammer.r_body in
    let value name =
      let series = "xquec_bufferpool_" ^ name in
      match
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ s; v ] when s = series -> int_of_string_opt v
            | _ -> None)
          lines
      with
      | Some v -> v
      | None -> die "/metrics lacks %s" series
    in
    List.map value pool_series
  in
  let log_records () =
    In_channel.with_open_bin query_log In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let metrics0 = scrape () and logged0 = List.length (log_records ()) in
  let clients = 20 and per_client = 3 in
  let outcomes =
    Xquec_obs.Hammer.drive ~port ~clients ~requests_per_client:per_client
      ~target:(fun _ seq ->
        if seq = 1 then ("GET", "/metrics", "") else ("POST", "/query", q))
      ()
  in
  if List.length outcomes <> clients * per_client then
    die "expected %d outcomes, got %d" (clients * per_client) (List.length outcomes);
  List.iter
    (fun (o : Xquec_obs.Hammer.outcome) ->
      let rep = o.Xquec_obs.Hammer.o_reply in
      if rep.Xquec_obs.Hammer.r_status <> 200 then
        die "client %d seq %d: HTTP %d" o.Xquec_obs.Hammer.o_client
          o.Xquec_obs.Hammer.o_seq rep.Xquec_obs.Hammer.r_status;
      if o.Xquec_obs.Hammer.o_seq <> 1 && rep.Xquec_obs.Hammer.r_body <> reference then
        die "client %d seq %d: result differs from the sequential reference"
          o.Xquec_obs.Hammer.o_client o.Xquec_obs.Hammer.o_seq)
    outcomes;
  (* the /metrics replies must carry the serving series *)
  let metrics_seen =
    List.exists
      (fun (o : Xquec_obs.Hammer.outcome) ->
        o.Xquec_obs.Hammer.o_seq = 1
        && contains o.Xquec_obs.Hammer.o_reply.Xquec_obs.Hammer.r_body
             "xquec_serve_plan_cache_hits")
      outcomes
  in
  if not metrics_seen then die "/metrics never exposed xquec_serve_plan_cache_hits";
  (* one counter: the /metrics pool deltas are the burst's log records, summed *)
  let metrics1 = scrape () in
  let records =
    List.filteri (fun i _ -> i >= logged0) (log_records ()) |> List.map Xquec_obs.Json.parse
  in
  let queries = clients * (per_client - 1) in
  if List.length records <> queries then
    die "expected %d query-log records for the burst, found %d" queries (List.length records);
  let logged name =
    List.fold_left
      (fun acc r ->
        let field = Option.bind (Xquec_obs.Json.member "pool" r) (Xquec_obs.Json.member name) in
        match Option.bind field Xquec_obs.Json.to_float with
        | Some v -> acc + int_of_float v
        | None -> die "query-log record lacks pool.%s" name)
      0 records
  in
  List.iter2
    (fun name (m0, m1) ->
      if m1 - m0 <> logged name then
        die "xquec_bufferpool_%s moved by %d over the burst, its log records sum to %d" name
          (m1 - m0) (logged name))
    pool_series (List.combine metrics0 metrics1);
  Printf.printf
    "serve_smoke: %d concurrent requests ok (results consistent, metrics live, pool counters = log sums)\n%!"
    (clients * per_client);
  (* --- drift watchdog: replay a shifted mix until the alert fires --- *)
  let w = Xquec_obs.Hammer.request ~port "/watch" in
  if w.Xquec_obs.Hammer.r_status <> 200 || not (contains w.Xquec_obs.Hammer.r_body "\"enabled\":true")
  then die "/watch did not report an enabled watchdog: %s" w.Xquec_obs.Hammer.r_body;
  let shifted =
    [
      "for $o in document(\"auction.xml\")/site/open_auctions/open_auction where $o/reserve > \
       \"100\" return $o/reserve";
      "for $a in document(\"auction.xml\")/site/closed_auctions/closed_auction for $p in \
       document(\"auction.xml\")/site/people/person where $p/@id = $a/buyer/@person return \
       $p/name";
    ]
  in
  let fired = ref false in
  let deadline = Unix.gettimeofday () +. 15.0 in
  while (not !fired) && Unix.gettimeofday () < deadline do
    List.iter
      (fun sq ->
        let rep = Xquec_obs.Hammer.request ~port ~meth:"POST" ~body:sq "/query" in
        if rep.Xquec_obs.Hammer.r_status <> 200 then
          die "shifted query returned %d: %s" rep.Xquec_obs.Hammer.r_status
            rep.Xquec_obs.Hammer.r_body)
      shifted;
    let a = Xquec_obs.Hammer.request ~port "/alerts" in
    if
      a.Xquec_obs.Hammer.r_status = 200
      && contains a.Xquec_obs.Hammer.r_body "\"rule\":\"drift_sustained\",\"event\":\"fired\""
    then fired := true
    else Unix.sleepf 0.1
  done;
  if not !fired then die "drift_sustained never fired on /alerts within 15s of the shifted mix";
  (* the fired transition must also be in the alert log on disk *)
  let log_data =
    let ic = open_in_bin alerts_log in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  if not (contains log_data "\"rule\":\"drift_sustained\",\"event\":\"fired\"") then
    die "alert log %s lacks the drift_sustained fired transition" alerts_log;
  Printf.printf "serve_smoke: drift_sustained fired on /alerts and in the alert log\n%!";
  shutdown pid ic;
  Printf.printf "serve_smoke: clean shutdown\n%!";
  (* no watchdog: queries answer, /watch says so, /alerts has no rules *)
  let pid, ic, port = start_server [| exe; "serve"; input; "-p"; "0"; "--watch-window"; "0" |] (Unix.environment ()) in
  let r = Xquec_obs.Hammer.request ~port ~meth:"POST" ~body:q "/query" in
  if r.Xquec_obs.Hammer.r_status <> 200 || r.Xquec_obs.Hammer.r_body <> reference then
    die "--watch-window 0: query returned %d: %s" r.Xquec_obs.Hammer.r_status r.Xquec_obs.Hammer.r_body;
  let w = Xquec_obs.Hammer.request ~port "/watch" in
  if w.Xquec_obs.Hammer.r_status <> 200 || not (contains w.Xquec_obs.Hammer.r_body "\"enabled\":false")
  then die "--watch-window 0: /watch did not report a disabled watchdog: %s" w.Xquec_obs.Hammer.r_body;
  let a = Xquec_obs.Hammer.request ~port "/alerts" in
  if a.Xquec_obs.Hammer.r_status <> 200 || not (contains a.Xquec_obs.Hammer.r_body "\"rules\":[]")
  then die "--watch-window 0: /alerts lists rules: %s" a.Xquec_obs.Hammer.r_body;
  shutdown pid ic;
  Printf.printf "serve_smoke: --watch-window 0 serves queries with no watchdog and no rules\n%!";
  (try Sys.remove workload_file with Sys_error _ -> ());
  (try Sys.remove alerts_log with Sys_error _ -> ());
  try Sys.remove query_log with Sys_error _ -> ()
