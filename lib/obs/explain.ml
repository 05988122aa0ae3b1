(* Profiled physical plans ("EXPLAIN ANALYZE"): the executor builds a
   tree of operator nodes while it runs, each annotated with inclusive
   wall time, output cardinality, and how many predicate evaluations ran
   on compressed codes vs. decompress-then-compare (the distinction the
   paper's §3 cost model prices).

   The profile is an explicit object threaded through the evaluation
   context, so profiling works independently of the global
   [Control.enabled] switch (and costs nothing when no profile is
   attached). *)

type node = {
  op : string;  (** operator label, e.g. "child::item", "hash join $p" *)
  kind : string;  (** operator class for metric keys, e.g. "step", "hash_join" *)
  mutable attrs : (string * string) list;
  mutable wall_us : float;  (** inclusive wall time *)
  mutable rows : int;  (** output cardinality; -1 = not applicable *)
  mutable cmp_compressed : int;
      (** predicate evaluations decided on compressed codes at this node *)
  mutable cmp_decompressed : int;
      (** predicate evaluations that had to decompress values *)
  mutable cache_hits : int;  (** buffer-pool hits, inclusive of children *)
  mutable cache_misses : int;  (** buffer-pool misses (block decodes) *)
  mutable cache_waits : int;
      (** buffer-pool latch waits: fetches that blocked on another
          domain's in-flight decode of the same block *)
  mutable blocks_skipped : int;  (** blocks pruned via headers, never decoded *)
  mutable decoded_bytes : int;  (** bytes charged to the pool by this subtree *)
  mutable skipped_bytes : int;
      (** compressed payload bytes of the pruned blocks *)
  mutable rev_children : node list;
}

type t = { root : node; mutable stack : node list }

let make_node ?(attrs = []) ~kind op =
  { op; kind; attrs; wall_us = 0.0; rows = -1; cmp_compressed = 0; cmp_decompressed = 0;
    cache_hits = 0; cache_misses = 0; cache_waits = 0; blocks_skipped = 0;
    decoded_bytes = 0; skipped_bytes = 0; rev_children = [] }

let create ?attrs (op : string) : t =
  let root = make_node ?attrs ~kind:"root" op in
  { root; stack = [ root ] }

let current (t : t) : node =
  match t.stack with n :: _ -> n | [] -> t.root

(** Run [f] as a child operator of the current node; [f] receives the
    fresh node so it can set rows / attach attributes. Wall time is
    inclusive of children. *)
let with_op (t : t) ~(kind : string) (op : string) (f : node -> 'a) : 'a =
  let node = make_node ~kind op in
  let parent = current t in
  parent.rev_children <- node :: parent.rev_children;
  t.stack <- node :: t.stack;
  let t0 = Trace.now_us () in
  let finish () =
    node.wall_us <- Trace.now_us () -. t0;
    (match t.stack with
    | top :: rest when top == node -> t.stack <- rest
    | _ -> () (* unbalanced exits only happen on exceptions already unwinding *));
    Metrics.incr (Printf.sprintf "executor.%s.calls" kind);
    if node.rows >= 0 then
      Metrics.incr ~by:node.rows (Printf.sprintf "executor.%s.rows_out" kind)
  in
  match f node with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let set_rows (node : node) (n : int) = node.rows <- n

let add_attrs (node : node) (kvs : (string * string) list) = node.attrs <- node.attrs @ kvs

(** Attribute [n] predicate evaluations to the innermost open operator. *)
let note_cmp (t : t) ~(compressed : bool) (n : int) : unit =
  if n > 0 then begin
    let node = current t in
    if compressed then node.cmp_compressed <- node.cmp_compressed + n
    else node.cmp_decompressed <- node.cmp_decompressed + n
  end

(** Stamp a node's buffer-pool activity (hits/misses/pruned blocks/bytes
    decoded). Like [wall_us] this is inclusive of the node's children:
    the executor records the delta of the process-wide pool counters
    around the operator's whole evaluation. *)
let set_cache (node : node) ?(skipped_bytes = 0) ~hits ~misses ~waits ~skipped
    ~decoded_bytes () =
  node.cache_hits <- hits;
  node.cache_misses <- misses;
  node.cache_waits <- waits;
  node.blocks_skipped <- skipped;
  node.decoded_bytes <- decoded_bytes;
  node.skipped_bytes <- skipped_bytes

(** Close the profile: stamp the root's wall time and return the tree. *)
let finish (t : t) ~(wall_us : float) ~(rows : int) : node =
  t.root.wall_us <- wall_us;
  t.root.rows <- rows;
  t.stack <- [ t.root ];
  t.root

let children (n : node) : node list = List.rev n.rev_children

(* --- totals -------------------------------------------------------- *)

let rec fold (f : 'a -> node -> 'a) (acc : 'a) (n : node) : 'a =
  List.fold_left (fold f) (f acc n) (children n)

type totals = { operators : int; compressed : int; decompressed : int }

let totals (n : node) : totals =
  fold
    (fun acc n ->
      {
        operators = acc.operators + 1;
        compressed = acc.compressed + n.cmp_compressed;
        decompressed = acc.decompressed + n.cmp_decompressed;
      })
    { operators = 0; compressed = 0; decompressed = 0 }
    n

(* --- rendering ----------------------------------------------------- *)

let annotations (n : node) : string =
  let parts = ref [] in
  if n.cmp_decompressed > 0 || n.cmp_compressed > 0 then
    parts :=
      Printf.sprintf "cmp %d compressed / %d decompressed" n.cmp_compressed n.cmp_decompressed
      :: !parts;
  if n.cache_hits > 0 || n.cache_misses > 0 || n.blocks_skipped > 0 then begin
    let waits = if n.cache_waits > 0 then Printf.sprintf " / %d wait" n.cache_waits else "" in
    let pruned_bytes =
      if n.skipped_bytes > 0 then Printf.sprintf " (%d B pruned)" n.skipped_bytes else ""
    in
    parts :=
      Printf.sprintf "cache %d hit / %d miss%s, %d blocks pruned%s, %d B decoded"
        n.cache_hits n.cache_misses waits n.blocks_skipped pruned_bytes n.decoded_bytes
      :: !parts
  end;
  List.iter (fun (k, v) -> parts := Printf.sprintf "%s=%s" k v :: !parts) (List.rev n.attrs);
  match !parts with [] -> "" | l -> "  [" ^ String.concat "; " l ^ "]"

let render (root : node) : string =
  let buf = Buffer.create 512 in
  let rec go ~is_root prefix is_last (n : node) =
    let connector = if is_root then "" else if is_last then "`- " else "|- " in
    let rows = if n.rows >= 0 then Printf.sprintf ", %d rows" n.rows else "" in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s  (%.3f ms%s)%s\n" prefix connector n.op (n.wall_us /. 1000.0)
         rows (annotations n));
    let kids = children n in
    let child_prefix = if is_root then "" else prefix ^ if is_last then "   " else "|  " in
    let rec each = function
      | [] -> ()
      | [ last ] -> go ~is_root:false child_prefix true last
      | k :: rest ->
        go ~is_root:false child_prefix false k;
        each rest
    in
    each kids
  in
  go ~is_root:true "" true root;
  Buffer.contents buf

(* --- strategy: the decisions the executor recorded ---------------- *)

(* Every operator that attaches attributes records a decision with them
   (a step only when the summary answered it), so a line per operator
   with attributes is a line per decision. *)
let strategy (root : node) : string list =
  fold
    (fun acc n ->
      match n.attrs with
      | [] -> acc
      | kvs ->
        let label = if n.kind = "step" then "summary access " ^ n.op else n.op in
        let kvs = List.map (fun (k, v) -> k ^ "=" ^ v) kvs in
        Printf.sprintf "%s  [%s]" label (String.concat "; " kvs) :: acc)
    [] root
  |> List.rev

let report (root : node) : string =
  let t = totals root in
  let buf = Buffer.create 1024 in
  (match strategy root with
  | [] -> ()
  | lines ->
    Buffer.add_string buf "strategy:\n";
    List.iter (fun l -> Buffer.add_string buf ("  " ^ l ^ "\n")) lines;
    Buffer.add_char buf '\n');
  Buffer.add_string buf "profiled plan:\n";
  Buffer.add_string buf (render root);
  Buffer.add_string buf
    (Printf.sprintf "%d operators; predicate cmps: %d compressed-domain, %d decompressed\n"
       t.operators t.compressed t.decompressed);
  Buffer.contents buf

let rec to_json (n : node) : Json.t =
  Json.Obj
    [
      ("op", Json.Str n.op);
      ("kind", Json.Str n.kind);
      ("wall_ms", Json.Num (n.wall_us /. 1000.0));
      ("rows", if n.rows >= 0 then Json.Num (float_of_int n.rows) else Json.Null);
      ("cmp_compressed", Json.Num (float_of_int n.cmp_compressed));
      ("cmp_decompressed", Json.Num (float_of_int n.cmp_decompressed));
      ("cache_hits", Json.Num (float_of_int n.cache_hits));
      ("cache_misses", Json.Num (float_of_int n.cache_misses));
      ("cache_waits", Json.Num (float_of_int n.cache_waits));
      ("blocks_skipped", Json.Num (float_of_int n.blocks_skipped));
      ("decoded_bytes", Json.Num (float_of_int n.decoded_bytes));
      ("skipped_bytes", Json.Num (float_of_int n.skipped_bytes));
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) n.attrs));
      ("children", Json.List (List.map to_json (children n)));
    ]

(** Compact single-line plan shape built from operator kinds, e.g.
    ["root(step(step,predicate))"] — a stable fingerprint for grouping
    query-log records by plan. *)
let rec shape (n : node) : string =
  match children n with
  | [] -> n.kind
  | kids -> n.kind ^ "(" ^ String.concat "," (List.map shape kids) ^ ")"

(** Compact per-operator profile for the query log: one object per
    node with only op/kind/rows/wall_ms/cmp counts (children nested),
    an order of magnitude smaller than {!to_json}. *)
let rec summary_json (n : node) : Json.t =
  Json.Obj
    [
      ("op", Json.Str n.op);
      ("kind", Json.Str n.kind);
      ("wall_ms", Json.Num (n.wall_us /. 1000.0));
      ("rows", if n.rows >= 0 then Json.Num (float_of_int n.rows) else Json.Null);
      ("cmp_compressed", Json.Num (float_of_int n.cmp_compressed));
      ("cmp_decompressed", Json.Num (float_of_int n.cmp_decompressed));
      ("children", Json.List (List.map summary_json (children n)));
    ]
