(* What the benchmark reads and writes: BENCHMARK.json (metric names,
   units, directions and bounds), a "name value unit" line per metric,
   the machine-readable result line, and --compare over two result
   files. *)

module Json = Xquec_obs.Json

(* Shortest decimal that reads back as the same float: every digit
   measured, none invented. *)
let num (f : float) : string =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* [Json.to_string] with full-precision numbers. *)
let rec render (j : Json.t) : string =
  let str s = "\"" ^ Json.escape s ^ "\"" in
  match j with
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num f -> if Float.is_finite f then num f else "null"
  | Json.Str s -> str s
  | Json.List l -> "[" ^ String.concat ", " (List.map render l) ^ "]"
  | Json.Obj fs -> "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ render v) fs) ^ "}"

(* --- BENCHMARK.json ----------------------------------------------------- *)

type metric_spec = { name : string; unit_ : string; better : string; bound : float }

type spec = {
  run_seconds : float;
  workloads : string list;
  end_to_end : metric_spec list;
  per_layer : metric_spec list;
}

(* BENCHMARK.json in the working directory or the nearest parent (the
   smoke test runs inside the build tree). *)
let rec find_spec (dir : string) : string =
  let p = Filename.concat dir "BENCHMARK.json" in
  if Sys.file_exists p then p
  else if Filename.dirname dir = dir then failwith "BENCHMARK.json not found"
  else find_spec (Filename.dirname dir)

let load_spec () : spec =
  let j = Json.parse (In_channel.with_open_bin (find_spec (Sys.getcwd ())) In_channel.input_all) in
  let field k j = Option.get (Json.member k j) in
  let items k = Option.get (Json.to_list (field k j)) in
  let metric m =
    {
      name = Option.get (Json.to_str (field "name" m));
      unit_ = Option.get (Json.to_str (field "unit" m));
      better = Option.get (Json.to_str (field "better" m));
      bound = Option.value ~default:0.0 (Option.bind (Json.member "bound" m) Json.to_float);
    }
  in
  {
    run_seconds = Option.get (Json.to_float (field "run_seconds" j));
    workloads = List.map (fun w -> Option.get (Json.to_str (field "name" w))) (items "workloads");
    end_to_end = List.map metric (items "end_to_end");
    per_layer = List.map metric (items "per_layer");
  }

(* The metrics [wanted] names, in its order, from those a workload
   produced, and what is wrong: a name missing, a unit that differs, a
   value that is not a finite number. *)
let select (wanted : metric_spec list) (produced : Layers.metric list) :
    Layers.metric list * string list =
  List.fold_right
    (fun m (ok, problems) ->
      match List.find_opt (fun (n, _, _) -> n = m.name) produced with
      | None -> (ok, ("metric " ^ m.name ^ " not produced") :: problems)
      | Some (_, u, _) when u <> m.unit_ ->
        (ok, Printf.sprintf "metric %s in %s, not %s" m.name u m.unit_ :: problems)
      | Some (_, _, v) when not (Float.is_finite v) -> (ok, ("metric " ^ m.name ^ " is not finite") :: problems)
      | Some metric -> (metric :: ok, problems))
    wanted ([], [])

let print_metric ((name, unit_, v) : Layers.metric) = Printf.printf "%-36s %22s %s\n" name (num v) unit_

let result_line ~correct ~attempted ~failed (metrics : Layers.metric list) : string =
  render
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                metrics) );
       ])

(* --- --compare ---------------------------------------------------------- *)

(* (workload, result line) of every run in an all-workload result file. *)
let runs_of_file (file : string) : (string * Json.t) list =
  let j = Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  Option.get (Option.bind (Json.member "runs" j) Json.to_list)
  |> List.map (fun r ->
         (Option.get (Option.bind (Json.member "workload" r) Json.to_str), Option.get (Json.member "result" r)))

(* For each workload and end-to-end metric, B's median against A's:
   "regressed" when worse by more than the bound, "unresolved" when A's
   own spread (interquartile range over the median) exceeds the bound
   and B is not better in every run, else "ok". More failed operations
   in B is a regression too. Returns whether anything regressed. *)
let compare (spec : spec) (a : string) (b : string) : bool =
  let ra = runs_of_file a and rb = runs_of_file b in
  let values runs w (m : metric_spec) =
    List.filter_map
      (fun (w', r) ->
        if w' <> w then None
        else
          Option.bind (Json.member "metrics" r) (Json.member m.name)
          |> Fun.flip Option.bind (Json.member "value")
          |> Fun.flip Option.bind Json.to_float)
      runs
    |> Array.of_list
  in
  let failed runs w =
    List.fold_left
      (fun acc (w', r) ->
        if w' <> w then acc
        else acc +. Option.value ~default:0.0 (Option.bind (Json.member "failed" r) Json.to_float))
      0.0 runs
  in
  let regressed = ref false in
  Printf.printf "%-12s %-20s %14s %14s %8s %7s %7s  %s\n" "workload" "metric" "A median" "B median"
    "worse" "bound" "spread" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : metric_spec) ->
          let va = values ra w m and vb = values rb w m in
          if va <> [||] && vb <> [||] then begin
            let ma = Stats.median va and mb = Stats.median vb in
            let lower = m.better = "lower" in
            let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
            let spread = Stats.spread va in
            let better x y = if lower then x < y else x > y in
            let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) va) vb in
            let verdict =
              if all_better then "ok"
              else if spread > m.bound then "unresolved"
              else if worse > m.bound then "regressed"
              else "ok"
            in
            if verdict = "regressed" then regressed := true;
            Printf.printf "%-12s %-20s %14.6g %14.6g %+7.2f%% %6.2f%% %6.2f%%  %s\n" w m.name ma mb
              (100.0 *. worse) (100.0 *. m.bound) (100.0 *. spread) verdict
          end)
        spec.end_to_end;
      let fa = failed ra w and fb = failed rb w in
      if fb > fa then begin
        regressed := true;
        Printf.printf "%-12s %-20s %14.0f %14.0f  regressed\n" w "failed" fa fb
      end)
    spec.workloads;
  !regressed
