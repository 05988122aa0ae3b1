(* Structured JSONL query log: one JSON object per executed query,
   appended to a log file chosen by the CLI's --query-log flag or the
   XQUEC_QUERY_LOG environment variable. The record schema (documented
   in docs/OBSERVABILITY.md) carries the query text and its hash, the
   plan shape, wall/CPU time, per-operator cardinalities, bytes decoded
   vs. bytes pruned, buffer-pool and domain-pool counter deltas, and GC
   allocation deltas — everything the experimental-comparison
   literature asks a reproducible evaluation to persist.

   This module owns only the sink (path resolution + appending); the
   record itself is assembled by the engine (Engine.request),
   which is the layer that can see the executor, the storage counters
   and the GC. A mutex serializes appends so concurrent server queries
   each produce exactly one untorn line. *)

let lock = Mutex.create ()

(* None = not yet resolved; Some None = resolved, logging off;
   Some (Some p) = logging to [p]. *)
let current_path : string option option ref = ref None

let resolve () : string option =
  match !current_path with
  | Some p -> p
  | None ->
    let p =
      match Sys.getenv_opt "XQUEC_QUERY_LOG" with
      | Some s when String.trim s <> "" -> Some (String.trim s)
      | _ -> None
    in
    current_path := Some p;
    p

let set_path (p : string option) : unit =
  Mutex.lock lock;
  current_path := Some p;
  Mutex.unlock lock

let path () : string option =
  Mutex.lock lock;
  let p = resolve () in
  Mutex.unlock lock;
  p

let enabled () : bool = path () <> None

let append (record : Json.t) : unit =
  Mutex.lock lock;
  (match resolve () with
  | None -> ()
  | Some file ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
    (try
       output_string oc (Json.to_string record);
       output_char oc '\n';
       close_out oc
     with e ->
       close_out_noerr oc;
       Mutex.unlock lock;
       raise e));
  Mutex.unlock lock
