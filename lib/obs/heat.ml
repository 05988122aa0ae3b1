(* Per-container / per-block access heat. See heat.mli.

   Heat counts nothing itself and names nothing: it reads the
   container rows it is given ({!Ledger.container}, one per container,
   owned by the container), under the totals' mutex that guards them. *)

type stat = {
  uid : int;
  label : string;
  blocks : int;
  touches : int;
  decodes : int;
  hits : int;
  header_skips : int;
  bytes_decoded : int;
  bytes_skipped : int;
  seq_touches : int;
  runs : int;
}

let stat_of (c : Ledger.container) =
  {
    uid = c.c_uid;
    label = c.c_label;
    blocks = c.c_blocks;
    touches = c.c_touches;
    decodes = c.c_decodes;
    hits = max 0 (c.c_touches - c.c_decodes);
    header_skips = c.c_header_skips;
    bytes_decoded = c.c_bytes_decoded;
    bytes_skipped = c.c_bytes_skipped;
    seq_touches = max 0 (c.c_touches - c.c_runs);
    runs = c.c_runs;
  }

let by_label rows =
  List.sort
    (fun (a : Ledger.container) (b : Ledger.container) ->
      match compare a.c_label b.c_label with 0 -> compare a.c_uid b.c_uid | c -> c)
    rows

let snapshot rows = Ledger.with_totals (fun _ -> List.map stat_of (by_label rows))

let reset rows =
  Ledger.with_totals @@ fun _ ->
  List.iter
    (fun (c : Ledger.container) ->
      c.c_touches <- 0;
      c.c_runs <- 0;
      c.c_block_touches <- [||];
      c.c_decodes <- 0;
      c.c_header_skips <- 0;
      c.c_bytes_decoded <- 0;
      c.c_bytes_skipped <- 0)
    rows

let hot_blocks_locked (c : Ledger.container) ~top =
  if top <= 0 then []
  else
    Array.to_list (Array.mapi (fun i n -> (i, n)) c.c_block_touches)
    |> List.filter (fun (_, n) -> n > 0)
    |> List.sort (fun (i1, n1) (i2, n2) -> match compare n2 n1 with 0 -> compare i1 i2 | c -> c)
    |> List.filteri (fun i _ -> i < top)

let hot_blocks c ~top = Ledger.with_totals (fun _ -> hot_blocks_locked c ~top)

let snapshot_json ?(top_blocks = 8) rows =
  let block (b, n) =
    Json.Obj [ ("block", Json.Num (float_of_int b)); ("touches", Json.Num (float_of_int n)) ]
  in
  let container (st, hot) =
    Json.Obj
      ([
         ("container", Json.Str st.label);
         ("uid", Json.Num (float_of_int st.uid));
         ("blocks", Json.Num (float_of_int st.blocks));
         ("touches", Json.Num (float_of_int st.touches));
         ("decodes", Json.Num (float_of_int st.decodes));
         ("hits", Json.Num (float_of_int st.hits));
         ("header_skips", Json.Num (float_of_int st.header_skips));
         ("bytes_decoded", Json.Num (float_of_int st.bytes_decoded));
         ("bytes_skipped", Json.Num (float_of_int st.bytes_skipped));
         ("seq_touches", Json.Num (float_of_int st.seq_touches));
         ("runs", Json.Num (float_of_int st.runs));
       ]
      @ if top_blocks > 0 then [ ("hot_blocks", Json.List (List.map block hot)) ] else [])
  in
  let readings =
    Ledger.with_totals (fun _ ->
        List.map (fun c -> (stat_of c, hot_blocks_locked c ~top:top_blocks)) (by_label rows))
  in
  Json.Obj
    [
      ("enabled", Json.Bool (Ledger.containers_enabled ()));
      ("containers", Json.List (List.map container readings));
    ]

let of_json j =
  let int_field c name =
    Option.fold ~none:0 ~some:int_of_float (Option.bind (Json.member name c) Json.to_float)
  in
  Option.value ~default:[] (Option.bind (Json.member "containers" j) Json.to_list)
  |> List.filter_map (fun c ->
         Option.map
           (fun label ->
             let f = int_field c in
             {
               uid = f "uid";
               label;
               blocks = f "blocks";
               touches = f "touches";
               decodes = f "decodes";
               hits = f "hits";
               header_skips = f "header_skips";
               bytes_decoded = f "bytes_decoded";
               bytes_skipped = f "bytes_skipped";
               seq_touches = f "seq_touches";
               runs = f "runs";
             })
           (Option.bind (Json.member "container" c) Json.to_str))

let publish_metrics rows =
  let stats = snapshot rows in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 stats in
  Metrics.set_counter "heat.containers" (List.length stats);
  Metrics.set_counter "heat.touches" (sum (fun s -> s.touches));
  Metrics.set_counter "heat.decodes" (sum (fun s -> s.decodes));
  Metrics.set_counter "heat.hits" (sum (fun s -> s.hits));
  Metrics.set_counter "heat.header_skips" (sum (fun s -> s.header_skips));
  Metrics.set_counter "heat.bytes_decoded" (sum (fun s -> s.bytes_decoded));
  Metrics.set_counter "heat.bytes_skipped" (sum (fun s -> s.bytes_skipped));
  Metrics.set_counter "heat.seq_touches" (sum (fun s -> s.seq_touches));
  Metrics.set_counter "heat.runs" (sum (fun s -> s.runs))
