(* End-to-end benchmark of XQueC: four workloads, each run in its own
   process, with the end-to-end metrics and (with --trace 1) the
   per-layer ones named in BENCHMARK.json. See README.md.

     dune exec bench/e2e/main.exe -- --seed 42            every workload once
     dune exec bench/e2e/main.exe -- --seed 42 --trace 1  the traced run
     dune exec bench/e2e/main.exe -- --workload point_cold --seed 7 --seconds 12 --trace 0
     dune exec bench/e2e/main.exe -- --compare A.json B.json
     dune exec bench/e2e/main.exe -- --quick              the smoke test

   One workload prints a "name value unit" line per metric, then a last
   line of JSON: {"correct", "attempted", "failed", "metrics"}. All
   workloads write every run's result to _gate/e2e-seed<S>[-trace].json
   (or --out). *)

let usage = "main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--quick]"

let mkdir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Run workload [name] in this process and print its result. *)
let run_one (spec : Report.spec) ~name ~seed ~seconds ~trace ~trace_out ~quick : int =
  let workload =
    match List.assoc_opt name Workloads.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2
  in
  let produced =
    workload
      {
        Workloads.seed;
        seconds;
        scale = (if quick then 0.05 else 2.0);
        ingest_scale = (if quick then 0.05 else 0.25);
        trace;
        trace_out;
      }
  in
  let metrics, problems = Report.select (if trace then spec.per_layer else spec.end_to_end) produced in
  List.iter Report.print_metric metrics;
  List.iter (fun p -> prerr_endline ("ERROR: " ^ p)) problems;
  let attempted = !Layers.attempted and failed = !Layers.failed in
  let correct = failed = 0 && problems = [] in
  print_endline (Report.result_line ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

let revision () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let r = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    r
  with _ -> "unknown"

(* Each workload [runs] times, seeds seed .. seed+runs-1, each run in a
   child process; echoes their output (not when [quick]) and collects
   their result lines. Returns (exit code, the runs as JSON). *)
let run_all (spec : Report.spec) ~seed ~seconds ~trace ~runs ~quick : int * Xquec_obs.Json.t list =
  let module Json = Xquec_obs.Json in
  let status = ref 0 in
  let results =
    List.concat_map
      (fun w ->
        List.init runs (fun r ->
            let seed = seed + r in
            let args =
              [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                Report.num seconds; "--trace"; (if trace then "1" else "0") ]
              @ (if quick then [ "--quick" ] else [])
              @
              if trace && not quick then
                [ "--trace-out"; Printf.sprintf "_gate/e2e-seed%d-%s.trace.json" seed w ]
              else []
            in
            if not quick then Printf.printf "== %s seed %d%s\n%!" w seed (if trace then " (traced)" else "");
            let t0 = Unix.gettimeofday () in
            let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
            let last = ref "" in
            (try
               while true do
                 let line = input_line ic in
                 if not quick then print_endline line;
                 last := line
               done
             with End_of_file -> ());
            let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 128 in
            if code <> 0 then status := 1;
            let result = try Json.parse !last with _ -> Json.Null in
            Json.Obj
              [
                ("workload", Json.Str w);
                ("seed", Json.Num (float_of_int seed));
                ("trace", Json.Bool trace);
                ("wall_s", Json.Num (Unix.gettimeofday () -. t0));
                ("exit", Json.Num (float_of_int code));
                ("result", result);
              ]))
      spec.workloads
  in
  (!status, results)

(* The smoke test: every workload at XMark scale 0.05 for 1 s, untraced
   and traced. A run exits non-zero when a metric of BENCHMARK.json is
   missing or an operation failed. *)
let quick (spec : Report.spec) ~seed : int =
  let ok trace = fst (run_all spec ~seed ~seconds:1.0 ~trace ~runs:1 ~quick:true) = 0 in
  if ok false && ok true then begin
    print_endline "quick: every metric emitted, no failed operation";
    0
  end
  else 1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 0.0 and trace = ref 0 in
  let runs = ref 1 and quick_mode = ref false and out = ref "" and trace_out = ref "" in
  let compare = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed every input derives from (default 42; 7 is held out)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default: BENCHMARK.json)");
      ("--trace", Arg.Set_int trace, "0|1 1 = the traced run, per-layer metrics");
      ("--runs", Arg.Set_int runs, "N runs per workload, seeds seed..seed+N-1 (all workloads)");
      ("--out", Arg.Set_string out, "FILE result file (all workloads)");
      ("--quick", Arg.Set quick_mode, " smoke test: scale 0.05, 1 s, every metric, no failure");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> compare := [ a ]); Arg.String (fun b -> compare := !compare @ [ b ]) ],
        "A B compare two result files against the bounds in BENCHMARK.json" );
      ("--trace-out", Arg.Set_string trace_out, "FILE chrome-trace of the traced requests");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec = Report.load_spec () in
  let seconds = if !seconds > 0.0 then !seconds else if !quick_mode then 1.0 else spec.run_seconds in
  match (!compare, !workload) with
  | [ a; b ], _ -> exit (if Report.compare spec a b then 1 else 0)
  | _, "" when !quick_mode -> exit (quick spec ~seed:!seed)
  | _, "" ->
    let trace = !trace = 1 in
    mkdir "_gate";
    let status, results = run_all spec ~seed:!seed ~seconds ~trace ~runs:!runs ~quick:false in
    let module Json = Xquec_obs.Json in
    let file =
      if !out <> "" then !out else Printf.sprintf "_gate/e2e-seed%d%s.json" !seed (if trace then "-trace" else "")
    in
    mkdir (Filename.dirname file);
    Out_channel.with_open_bin file (fun oc ->
        output_string oc
          (Report.render
             (Json.Obj
                [
                  ("benchmark", Json.Str "xquec-e2e");
                  ("revision", Json.Str (revision ()));
                  ("seed", Json.Num (float_of_int !seed));
                  ("seconds", Json.Num seconds);
                  ("trace", Json.Bool trace);
                  ("runs", Json.List results);
                ]));
        output_char oc '\n');
    Printf.printf "wrote %s\n" file;
    exit status
  | _, name ->
    exit
      (run_one spec ~name ~seed:!seed ~seconds ~trace:(!trace = 1)
         ~trace_out:(if !trace_out = "" then None else Some !trace_out)
         ~quick:!quick_mode)
