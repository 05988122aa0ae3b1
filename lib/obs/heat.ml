(* Per-container / per-block access heat. See heat.mli.

   Heat counts nothing itself: it names the containers (label, block
   count) and reads their rows of the process totals ({!Ledger}). The
   registry lives under the totals' mutex too, so every operation here
   is one [Ledger.with_totals]. *)

type reg = { label : string; blocks : int }

let registry : (int, reg) Hashtbl.t = Hashtbl.create 64

let set_enabled = Ledger.set_containers_enabled

let register ~uid ~label ~blocks =
  Ledger.with_totals @@ fun _ ->
  match Hashtbl.find_opt registry uid with
  | Some r ->
    Hashtbl.replace registry uid
      {
        label = (if label <> "" then label else r.label);
        blocks = (if blocks > 0 then blocks else r.blocks);
      }
  | None -> Hashtbl.replace registry uid { label; blocks }

(* A uid is never reused, so a dropped row stays dropped: a straggler
   still reading the old container adds to a totals row no reading
   shows. *)
let unregister ~uid =
  Ledger.with_totals @@ fun t ->
  Hashtbl.remove registry uid;
  Hashtbl.remove t.Ledger.containers uid

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

let stat_of (t : Ledger.t) uid (r : reg) =
  let get f = match Hashtbl.find_opt t.Ledger.containers uid with Some c -> f c | None -> 0 in
  let touches = get (fun c -> c.Ledger.c_touches) and decodes = get (fun c -> c.c_decodes) in
  let runs = get (fun c -> c.c_runs) in
  {
    uid;
    label = r.label;
    blocks = r.blocks;
    touches;
    decodes;
    hits = max 0 (touches - decodes);
    header_skips = get (fun c -> c.c_header_skips);
    bytes_decoded = get (fun c -> c.c_bytes_decoded);
    bytes_skipped = get (fun c -> c.c_bytes_skipped);
    seq_touches = max 0 (touches - runs);
    runs;
  }

let snapshot () =
  Ledger.with_totals (fun t -> Hashtbl.fold (fun uid r acc -> stat_of t uid r :: acc) registry [])
  |> List.sort (fun a b ->
         match compare a.label b.label with 0 -> compare a.uid b.uid | c -> c)

let reset () =
  Ledger.with_totals @@ fun t ->
  Hashtbl.reset t.Ledger.containers;
  t.last_uid <- -1;
  t.last_blk <- -1

let hot_blocks ~uid ~top =
  if top <= 0 then []
  else
    Ledger.with_totals (fun t ->
        match Hashtbl.find_opt t.Ledger.containers uid with
        | Some c when Hashtbl.mem registry uid ->
          Array.to_list (Array.mapi (fun i n -> (i, n)) c.c_block_touches)
        | _ -> [])
    |> List.filter (fun (_, n) -> n > 0)
    |> List.sort (fun (i1, n1) (i2, n2) -> match compare n2 n1 with 0 -> compare i1 i2 | c -> c)
    |> List.filteri (fun i _ -> i < top)

let snapshot_json ?(top_blocks = 8) () =
  let container st =
    let hot =
      hot_blocks ~uid:st.uid ~top:top_blocks
      |> List.map (fun (b, n) ->
             Json.Obj [ ("block", Json.Num (float_of_int b)); ("touches", Json.Num (float_of_int n)) ])
    in
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
      @ if top_blocks > 0 then [ ("hot_blocks", Json.List hot) ] else [])
  in
  Json.Obj
    [
      ("enabled", Json.Bool (Ledger.containers_enabled ()));
      ("containers", Json.List (List.map container (snapshot ())));
    ]

let publish_metrics () =
  let stats = snapshot () in
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
