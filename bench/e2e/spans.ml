(* Per-layer time from Xquec_obs.Trace spans: the benchmark's own spans
   around its calls into the engine (bench.request > bench.compile,
   bench.eval, bench.serialize) and the spans the library already
   records under them (executor.run, container.decode, decodepool.task,
   executor.block_merge_join, and the loader and partitioner phases). *)

module Trace = Xquec_obs.Trace

type acc = { mutable total_us : float; mutable self_us : float }

type t = { by_name : (string, acc) Hashtbl.t; mutable dropped : int }

let create () = { by_name = Hashtbl.create 16; dropped = 0 }

let acc t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
    let a = { total_us = 0.0; self_us = 0.0 } in
    Hashtbl.replace t.by_name name a;
    a

(* Fold the recorded spans into [t] and empty the ring buffers; called
   between requests, often enough that no ring wraps. Each domain's
   spans arrive in completion order, so the children of a span at depth
   d are the spans at depth d+1 completed since the previous span at
   depth <= d, and its self time is its duration minus theirs.
   Queue-wait spans mark time a task waited, not work, and are left
   out. *)
let drain (t : t) : unit =
  t.dropped <- t.dropped + Trace.dropped ();
  let children : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let tid = ref (-1) in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.tid <> !tid then begin
        Hashtbl.reset children;
        tid := sp.tid
      end;
      if (not sp.instant) && sp.name <> "decodepool.queue_wait" then begin
        let get d = Option.value ~default:0.0 (Hashtbl.find_opt children d) in
        let kids = get (sp.depth + 1) in
        Hashtbl.remove children (sp.depth + 1);
        Hashtbl.replace children sp.depth (get sp.depth +. sp.dur_us);
        let a = acc t sp.name in
        a.total_us <- a.total_us +. sp.dur_us;
        a.self_us <- a.self_us +. (sp.dur_us -. kids)
      end)
    (Trace.spans ());
  Trace.clear ()

(* Summed duration / self time of every span named [name], in ms. *)
let total_ms t name = match Hashtbl.find_opt t.by_name name with Some a -> a.total_us /. 1000.0 | None -> 0.0

let self_ms t name = match Hashtbl.find_opt t.by_name name with Some a -> a.self_us /. 1000.0 | None -> 0.0

(* Record spans from here on, in rings large enough for 1000 requests
   of the busiest workload between two drains. *)
let start () =
  Trace.set_capacity (1 lsl 16);
  Trace.clear ();
  Xquec_obs.set_enabled true

let stop () = Xquec_obs.set_enabled false
