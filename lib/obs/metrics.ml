(* Process-wide metrics registry: counters, gauges, and log-scale
   histograms, keyed by dotted names ("loader.parse_ms",
   "container./site/people/person/name/#text.encoded_bytes",
   "codec.alm.encode_calls", "executor.step.rows_out").

   Everything is a no-op while [Control.enabled] is false; snapshot /
   read accessors work regardless so tests can inspect state after a
   run.

   Thread safety: the registry is shared by every domain that evaluates
   queries (serve's workers bump "container.blocks_decoded" etc.
   concurrently), so one mutex guards every table access.
   It is a leaf lock — nothing is called while holding it — making the
   lock ordering with the storage locks trivially acyclic. *)

(* --- histograms ---------------------------------------------------- *)

(* Log-scale buckets: bucket 0 holds values <= [lowest_bound]; bucket i
   holds (lowest_bound * 2^(i-1), lowest_bound * 2^i]; the last bucket
   is open-ended. With lowest_bound = 0.001 and 40 buckets the range
   covers one microsecond to ~half a million seconds when observing
   milliseconds — also fine for byte sizes. *)
let bucket_count = 40

let lowest_bound = 0.001

let bucket_index (v : float) : int =
  if v <= lowest_bound then 0
  else begin
    (* smallest i with lowest_bound * 2^i >= v *)
    let i = int_of_float (Float.ceil (Float.log2 (v /. lowest_bound))) in
    min (bucket_count - 1) (max 1 i)
  end

let bucket_upper_bound (i : int) : float =
  if i >= bucket_count - 1 then Float.infinity
  else lowest_bound *. Float.pow 2.0 (float_of_int i)

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type histogram_stats = { count : int; sum : float; min : float; max : float; mean : float }

(* --- registry ------------------------------------------------------ *)

(* guards the three tables and every value they hold *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let counters : (string, int ref) Hashtbl.t = Hashtbl.create 64

let gauges : (string, float ref) Hashtbl.t = Hashtbl.create 64

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let reset () =
  with_lock (fun () ->
      Hashtbl.reset counters;
      Hashtbl.reset gauges;
      Hashtbl.reset histograms)

(* --- writes (gated) ------------------------------------------------ *)

let incr ?(by = 1) (name : string) : unit =
  if !Control.enabled then
    with_lock (fun () ->
        match Hashtbl.find_opt counters name with
        | Some r -> r := !r + by
        | None -> Hashtbl.add counters name (ref by))

let set_gauge (name : string) (v : float) : unit =
  if !Control.enabled then
    with_lock (fun () ->
        match Hashtbl.find_opt gauges name with
        | Some r -> r := v
        | None -> Hashtbl.add gauges name (ref v))

(* Set a counter to an absolute value — for collectors that sync an
   externally maintained cumulative counter (buffer-pool / domain-pool
   atomics) into the registry before an export. *)
let set_counter (name : string) (v : int) : unit =
  if !Control.enabled then
    with_lock (fun () ->
        match Hashtbl.find_opt counters name with
        | Some r -> r := v
        | None -> Hashtbl.add counters name (ref v))

let observe (name : string) (v : float) : unit =
  if !Control.enabled then
    with_lock (fun () ->
        let h =
          match Hashtbl.find_opt histograms name with
          | Some h -> h
          | None ->
            let h =
              { h_count = 0; h_sum = 0.0; h_min = Float.infinity;
                h_max = Float.neg_infinity; h_buckets = Array.make bucket_count 0 }
            in
            Hashtbl.add histograms name h;
            h
        in
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v;
        let i = bucket_index v in
        h.h_buckets.(i) <- h.h_buckets.(i) + 1)

(** Time [f] and record its wall-clock milliseconds into histogram
    [name]. *)
let time_ms (name : string) (f : unit -> 'a) : 'a =
  if not !Control.enabled then f ()
  else begin
    let t0 = Trace.now_us () in
    match f () with
    | v ->
      observe name ((Trace.now_us () -. t0) /. 1000.0);
      v
    | exception e ->
      observe name ((Trace.now_us () -. t0) /. 1000.0);
      raise e
  end

(* --- reads (always available) -------------------------------------- *)

let counter_value (name : string) : int =
  with_lock (fun () ->
      match Hashtbl.find_opt counters name with Some r -> !r | None -> 0)

let gauge_value (name : string) : float option =
  with_lock (fun () -> Option.map (fun r -> !r) (Hashtbl.find_opt gauges name))

let histogram_stats (name : string) : histogram_stats option =
  with_lock (fun () ->
      Option.map
        (fun h ->
          { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max;
            mean = (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count) })
        (Hashtbl.find_opt histograms name))

(* Percentile estimate from the log-scale buckets: find the bucket the
   rank lands in and interpolate linearly inside it. Bucket edges are
   tightened with the recorded h_min / h_max (which also bound the
   open-ended last bucket), so the estimate is exact for single-bucket
   distributions and within one bucket (a factor of 2) otherwise.

   Documented sentinels, not bucket arithmetic, at the edges: a missing
   or empty histogram is [None]; [p <= 0] is the recorded minimum and
   [p >= 1] the recorded maximum; a histogram whose observations all
   landed in one bucket interpolates between min and max directly, so
   no bucket boundary ever leaks into the answer. *)
let histogram_percentile (name : string) (p : float) : float option =
  with_lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | None -> None
      | Some h when h.h_count = 0 -> None
      | Some h when p <= 0.0 -> Some h.h_min
      | Some h when p >= 1.0 -> Some h.h_max
      | Some h ->
        let target = p *. float_of_int h.h_count in
        let nonzero = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 h.h_buckets in
        if nonzero <= 1 then
          (* everything in one bucket: the bucket edges carry no
             information beyond [h_min, h_max] — interpolate there *)
          Some (h.h_min +. (p *. (h.h_max -. h.h_min)))
        else
          let rec find i cum =
            if i >= bucket_count then h.h_max
            else begin
              let c = h.h_buckets.(i) in
              let cum' = cum +. float_of_int c in
              if c > 0 && cum' >= target then begin
                let lo =
                  if i = 0 then 0.0
                  else lowest_bound *. Float.pow 2.0 (float_of_int (i - 1))
                in
                let lo = Float.max lo (Float.min h.h_min h.h_max) in
                let hi = Float.min (bucket_upper_bound i) h.h_max in
                let hi = Float.max lo hi in
                let frac = Float.max 0.0 (Float.min 1.0 ((target -. cum) /. float_of_int c)) in
                lo +. (frac *. (hi -. lo))
              end
              else find (i + 1) cum'
            end
          in
          Some (find 0 0.0))

let histogram_buckets (name : string) : (float * int) list option =
  with_lock (fun () ->
      Option.map
        (fun h ->
          Array.to_list h.h_buckets
          |> List.mapi (fun i c -> (bucket_upper_bound i, c))
          |> List.filter (fun (_, c) -> c > 0))
        (Hashtbl.find_opt histograms name))

(* --- snapshots ----------------------------------------------------- *)

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dump_json () : string =
  with_lock @@ fun () ->
  let counter_fields = sorted_bindings counters (fun r -> Json.Num (float_of_int !r)) in
  let gauge_fields = sorted_bindings gauges (fun r -> Json.Num !r) in
  let histo_fields =
    sorted_bindings histograms (fun h ->
        Json.Obj
          [
            ("count", Json.Num (float_of_int h.h_count));
            ("sum", Json.Num h.h_sum);
            ("min", Json.Num (if h.h_count = 0 then 0.0 else h.h_min));
            ("max", Json.Num (if h.h_count = 0 then 0.0 else h.h_max));
            ( "buckets",
              Json.List
                (Array.to_list h.h_buckets
                |> List.mapi (fun i c -> (i, c))
                |> List.filter (fun (_, c) -> c > 0)
                |> List.map (fun (i, c) ->
                       Json.Obj
                         [
                           ("le", Json.Num (bucket_upper_bound i));
                           ("count", Json.Num (float_of_int c));
                         ])) );
          ])
  in
  Json.to_string
    (Json.Obj
       [
         ("counters", Json.Obj counter_fields);
         ("gauges", Json.Obj gauge_fields);
         ("histograms", Json.Obj histo_fields);
       ])

let dump_text () : string =
  with_lock @@ fun () ->
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let cs = sorted_bindings counters (fun r -> !r) in
  let gs = sorted_bindings gauges (fun r -> !r) in
  let hs = sorted_bindings histograms (fun h -> h) in
  if cs <> [] then begin
    line "counters:";
    List.iter (fun (k, v) -> line "  %-56s %12d" k v) cs
  end;
  if gs <> [] then begin
    line "gauges:";
    List.iter (fun (k, v) -> line "  %-56s %12.2f" k v) gs
  end;
  if hs <> [] then begin
    line "histograms:";
    List.iter
      (fun (k, (h : histogram)) ->
        if h.h_count = 0 then line "  %-56s (empty)" k
        else
          line "  %-56s n=%d sum=%.3f min=%.3f mean=%.3f max=%.3f" k h.h_count h.h_sum
            h.h_min
            (h.h_sum /. float_of_int h.h_count)
            h.h_max)
      hs
  end;
  if cs = [] && gs = [] && hs = [] then line "(no metrics recorded)";
  Buffer.contents buf

(* --- Prometheus text exposition ------------------------------------ *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else becomes '_'. *)
let prom_sanitize (s : string) : string =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    s

(* Label values escape backslash, double quote and newline. *)
let prom_escape_label (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Per-container metrics are registered as "container.<path>.<leaf>"
   where <path> is a root-to-leaf XML path ("/site/people/.../#text").
   Exposing the path inside the metric name would create one series
   name per container; fold it into a label instead:
   xquec_container_<leaf>{path="<path>"}. Alert gauges get the same
   treatment: "alert.<rule>.active" -> xquec_alert_active{rule="<rule>"},
   one series name across every rule. Everything else maps
   "a.b.c" -> "xquec_a_b_c". Returns (metric name, label pairs). *)
let prom_name (name : string) : string * (string * string) list =
  let container_prefix = "container./" in
  let alert_prefix = "alert." in
  let alert_suffix = ".active" in
  if String.length name > String.length container_prefix
     && String.sub name 0 (String.length container_prefix) = container_prefix
  then begin
    match String.rindex_opt name '.' with
    | Some dot when dot > String.length "container" ->
      let path = String.sub name (String.length "container.") (dot - String.length "container.") in
      let leaf = String.sub name (dot + 1) (String.length name - dot - 1) in
      ("xquec_container_" ^ prom_sanitize leaf, [ ("path", path) ])
    | _ -> ("xquec_" ^ prom_sanitize name, [])
  end
  else if
    String.length name > String.length alert_prefix + String.length alert_suffix
    && String.sub name 0 (String.length alert_prefix) = alert_prefix
    && String.sub name
         (String.length name - String.length alert_suffix)
         (String.length alert_suffix)
       = alert_suffix
  then begin
    let rule =
      String.sub name (String.length alert_prefix)
        (String.length name - String.length alert_prefix - String.length alert_suffix)
    in
    ("xquec_alert_active", [ ("rule", rule) ])
  end
  else ("xquec_" ^ prom_sanitize name, [])

let prom_labels (labels : (string * string) list) : string =
  match labels with
  | [] -> ""
  | ls ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape_label v)) ls)
    ^ "}"

let prom_float (v : float) : string =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Json.number_to_string v

(** The whole registry in Prometheus text exposition format (version
    0.0.4): counters and gauges as single samples, histograms as
    cumulative [_bucket{le=...}] series plus [_sum] and [_count]. A
    [# TYPE] comment precedes each metric; series are sorted by
    registry name. *)
let to_prometheus () : string =
  with_lock @@ fun () ->
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* Emit TYPE headers once per exposed metric name (containers share
     one name across many label sets). *)
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let type_header name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      line "# TYPE %s %s" name kind
    end
  in
  List.iter
    (fun (k, v) ->
      let name, labels = prom_name k in
      type_header name "counter";
      line "%s%s %d" name (prom_labels labels) v)
    (sorted_bindings counters (fun r -> !r));
  List.iter
    (fun (k, v) ->
      let name, labels = prom_name k in
      type_header name "gauge";
      line "%s%s %s" name (prom_labels labels) (prom_float v))
    (sorted_bindings gauges (fun r -> !r));
  List.iter
    (fun (k, (h : histogram)) ->
      let name, labels = prom_name k in
      type_header name "histogram";
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          if c > 0 && i < bucket_count - 1 then begin
            cum := !cum + c;
            line "%s_bucket%s %d" name
              (prom_labels (labels @ [ ("le", prom_float (bucket_upper_bound i)) ]))
              !cum
          end)
        h.h_buckets;
      line "%s_bucket%s %d" name (prom_labels (labels @ [ ("le", "+Inf") ])) h.h_count;
      line "%s_sum%s %s" name (prom_labels labels) (prom_float h.h_sum);
      line "%s_count%s %d" name (prom_labels labels) h.h_count)
    (sorted_bindings histograms (fun h -> h));
  Buffer.contents buf
