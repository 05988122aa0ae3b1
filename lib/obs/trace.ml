(* Lightweight span tracer: [with_span] brackets a computation with a
   clamped-monotonic clock, records completed spans into per-domain
   fixed-size ring buffers, and exports them all as chrome-trace JSON
   (load the file in chrome://tracing or https://ui.perfetto.dev, where
   every domain appears as its own thread track).

   Disabled (the default), [with_span] is a single ref load + branch and
   a direct call — no allocation, no clock read.

   Concurrency model (see docs/CONCURRENCY.md): every domain owns a
   private sink (ring buffer + nesting depth + clock clamp) reached
   through domain-local storage, so the recording hot path takes no lock
   and touches no shared mutable state. A process-wide registry of sinks
   (one mutex, locked only when a domain records its first span and by
   the read/maintenance entry points) lets [spans] / [to_chrome_json] /
   [clear] / [set_capacity] see every domain's buffer. Read and
   maintenance calls assume no other domain is recording — in this
   engine they run on the only domain that recorded (the CLI's
   [--trace-out] export, the benchmark) or after the recording domains
   were joined, and [Domain.join] publishes their ring writes. *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_us : float;  (** microseconds since the trace epoch *)
  dur_us : float;
  depth : int;  (** nesting depth at the time the span was open *)
  tid : int;  (** id of the domain that recorded the span *)
  instant : bool;  (** a point event, not a bracketed span *)
}

(* --- clock --------------------------------------------------------- *)

(* OCaml's stdlib has no monotonic clock; clamp gettimeofday so nested
   span arithmetic stays well-ordered even if the wall clock steps
   backwards. The clamp is domain-local: cross-domain ordering is only
   used for display, where a microsecond-level skew is harmless. *)
let clamp_key : float ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0.0)

let now_us () =
  let last = Domain.DLS.get clamp_key in
  let t = Unix.gettimeofday () *. 1e6 in
  if t > !last then last := t;
  !last

let epoch_us = now_us ()

(* --- per-domain ring-buffer sinks ---------------------------------- *)

let default_capacity = 8192

let capacity = ref default_capacity

type sink = {
  s_tid : int;  (* (Domain.self () :> int) of the owning domain *)
  s_label : string;  (* thread name shown in the chrome-trace export *)
  mutable ring : span option array;
  mutable write_pos : int;
  mutable recorded : int;  (* total spans ever recorded, incl. overwritten *)
  mutable depth : int;
}

(* Registry of every sink ever created, in registration order (the main
   domain first: its sink is created at module initialization).
   [registry_mutex] guards the list itself; each sink's fields are only
   written by its owning domain. *)
let registry_mutex = Mutex.create ()

let sinks : sink list ref = ref []

let new_sink () =
  let tid = (Domain.self () :> int) in
  Mutex.lock registry_mutex;
  let label = if !sinks = [] then "main" else Printf.sprintf "domain-%d" tid in
  let s = { s_tid = tid; s_label = label; ring = [||]; write_pos = 0; recorded = 0; depth = 0 } in
  sinks := !sinks @ [ s ];
  Mutex.unlock registry_mutex;
  s

let sink_key : sink Domain.DLS.key = Domain.DLS.new_key new_sink

(* The module initializes on the main domain: register its sink first so
   single-domain span order (and the "main" label) is deterministic. *)
let main_sink = Domain.DLS.get sink_key

let () = ignore main_sink

let my_sink () = Domain.DLS.get sink_key

let ensure_ring (s : sink) =
  if Array.length s.ring <> !capacity then begin
    s.ring <- Array.make !capacity None;
    s.write_pos <- 0;
    s.recorded <- 0
  end

let with_registry f =
  Mutex.lock registry_mutex;
  match f !sinks with
  | v ->
    Mutex.unlock registry_mutex;
    v
  | exception e ->
    Mutex.unlock registry_mutex;
    raise e

let set_capacity n =
  capacity := max 1 n;
  (* rings are reallocated lazily at each sink's next record *)
  with_registry (List.iter (fun s ->
      s.ring <- [||];
      s.write_pos <- 0;
      s.recorded <- 0))

let clear () =
  with_registry (List.iter (fun s ->
      s.ring <- [||];
      s.write_pos <- 0;
      s.recorded <- 0;
      s.depth <- 0))

let record (s : sink) (sp : span) =
  ensure_ring s;
  s.ring.(s.write_pos) <- Some sp;
  s.write_pos <- (s.write_pos + 1) mod !capacity;
  s.recorded <- s.recorded + 1

(* Completed spans of one sink, oldest first. *)
let sink_spans (s : sink) : span list =
  let cap = Array.length s.ring in
  if cap = 0 then []
  else begin
    let out = ref [] in
    for i = 0 to cap - 1 do
      (* walk backwards from the newest entry *)
      let idx = ((s.write_pos - 1 - i) mod cap + cap) mod cap in
      match s.ring.(idx) with Some sp -> out := sp :: !out | None -> ()
    done;
    !out
  end

(** Completed spans of every domain: the registering domain's spans
    first (main, then workers in first-span order), each oldest first. *)
let spans () : span list =
  with_registry (fun ss -> List.concat_map sink_spans ss)

let dropped () =
  with_registry
    (List.fold_left (fun acc s -> acc + max 0 (s.recorded - Array.length s.ring)) 0)

(* --- spans --------------------------------------------------------- *)

let with_span ?(attrs = []) ~name (f : unit -> 'a) : 'a =
  if not !Control.enabled then f ()
  else begin
    let s = my_sink () in
    let t0 = now_us () in
    let d = s.depth in
    s.depth <- d + 1;
    let finish () =
      s.depth <- s.depth - 1;
      let t1 = now_us () in
      record s
        { name; attrs; start_us = t0 -. epoch_us; dur_us = t1 -. t0; depth = d;
          tid = s.s_tid; instant = false }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(** Record an instantaneous event (chrome-trace "instant"). *)
let event ?(attrs = []) name =
  if !Control.enabled then begin
    let s = my_sink () in
    record s
      { name; attrs; start_us = now_us () -. epoch_us; dur_us = 0.0; depth = s.depth;
        tid = s.s_tid; instant = true }
  end

(* --- export -------------------------------------------------------- *)

let span_to_json (s : span) : Json.t =
  let args =
    Json.Obj
      (("depth", Json.Num (float_of_int s.depth))
      :: List.map (fun (k, v) -> (k, Json.Str v)) s.attrs)
  in
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("cat", Json.Str "xquec");
      ("ph", Json.Str (if s.instant then "i" else "X"));
      ("ts", Json.Num s.start_us);
      ("dur", Json.Num s.dur_us);
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int s.tid));
      ("args", args);
    ]

(* One chrome-trace "M" (metadata) event naming a thread track. *)
let thread_name_json (tid : int) (label : string) : Json.t =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("name", Json.Str label) ]);
    ]

(** Every domain's buffer in chrome-trace format, with thread-name
    metadata so Perfetto labels the main domain and each worker. *)
let to_chrome_json () : string =
  let names =
    with_registry (fun ss -> List.map (fun s -> thread_name_json s.s_tid s.s_label) ss)
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (names @ List.map span_to_json (spans ())));
         ("displayTimeUnit", Json.Str "ms");
       ])

let export (path : string) : unit =
  let oc = open_out_bin path in
  output_string oc (to_chrome_json ());
  close_out oc
