(* Inputs, all derived from --seed: XMark documents and the images built
   from them, the point-lookup templates and their key schedules, and
   the reference digests answers are checked against. *)

open Xquec_core

let doc_name = "auction.xml"

let xmark = Array.of_list Xmark.Queries.all

(* The workload every image is compressed for (§3): Q1-Q20. *)
let workload = List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all

let generate ~seed ~scale = Xmark.Xmlgen.generate ~seed ~scale ()

(* An independent stream for each use of the seed, so adding a draw to
   one use does not shift the others. *)
let rng ~seed (use : int) = Random.State.make [| seed; use |]

let shuffle rng (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* --- point lookups ---------------------------------------------------- *)

type template = { tname : string; population : int; text : int -> string }

(* Seven lookups of one value by @id: person name, e-mail and city,
   item name and location, open-auction current and initial price. *)
let templates (scale : float) : template array =
  let c = Xmark.Xmlgen.counts_of_scale scale in
  let items = c.Xmark.Xmlgen.items_per_region * Array.length Xmark.Xmlgen.regions in
  let lookup ~var ~path ~prefix field k =
    Printf.sprintf "for %s in document(\"%s\")%s[@id = \"%s%d\"] return %s/%s/text()" var doc_name
      path prefix k var field
  in
  let person = lookup ~var:"$p" ~path:"/site/people/person" ~prefix:"person" in
  let item = lookup ~var:"$i" ~path:"/site/regions//item" ~prefix:"item" in
  let auction = lookup ~var:"$a" ~path:"/site/open_auctions/open_auction" ~prefix:"open_auction" in
  [|
    { tname = "person.name"; population = c.people; text = person "name" };
    { tname = "person.emailaddress"; population = c.people; text = person "emailaddress" };
    { tname = "person.city"; population = c.people; text = person "address/city" };
    { tname = "item.name"; population = items; text = item "name" };
    { tname = "item.location"; population = items; text = item "location" };
    { tname = "open_auction.current"; population = c.open_auctions; text = auction "current" };
    { tname = "open_auction.initial"; population = c.open_auctions; text = auction "initial" };
  |]

(* Every text the templates can produce: the reference set. *)
let all_texts (ts : template array) : string list =
  Array.to_list ts |> List.concat_map (fun t -> List.init t.population t.text)

(* Draws of (template, query text): template uniform; key uniform over
   its population. *)
let uniform (ts : template array) rng () : int * string =
  let i = Random.State.int rng (Array.length ts) in
  (i, ts.(i).text (Random.State.int rng ts.(i).population))

(* Draws as [uniform], but keys Zipf(0.99) over each template's
   population, ranks mapped through a seeded permutation so the hot
   keys are spread over the id space. *)
let zipf ~seed (ts : template array) rng : unit -> int * string =
  let perm_rng = Random.State.make [| seed; 3 |] in
  let tables =
    Array.map
      (fun t ->
        let cdf = Array.make t.population 0.0 in
        let acc = ref 0.0 in
        for r = 0 to t.population - 1 do
          acc := !acc +. (1.0 /. (float_of_int (r + 1) ** 0.99));
          cdf.(r) <- !acc
        done;
        let perm = Array.init t.population Fun.id in
        shuffle perm_rng perm;
        (cdf, perm))
      ts
  in
  fun () ->
    let i = Random.State.int rng (Array.length ts) in
    let cdf, perm = tables.(i) in
    let u = Random.State.float rng cdf.(Array.length cdf - 1) in
    (* first rank whose cumulative weight exceeds u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    (i, ts.(i).text perm.(search 0 (Array.length cdf - 1)))

(* --- reference answers ------------------------------------------------ *)

(* Digest of each text's answer followed by [suffix] (an HTTP body ends
   in a newline), evaluated sequentially through
   [Engine.query_serialized] on an engine nothing else queries. *)
let references ?(suffix = "") (engine : Engine.t) (texts : string list) :
    (string, Digest.t) Hashtbl.t =
  let tbl = Hashtbl.create (List.length texts) in
  List.iter
    (fun text ->
      if not (Hashtbl.mem tbl text) then
        Hashtbl.replace tbl text (Digest.string (Engine.query_serialized engine text ^ suffix)))
    texts;
  tbl

(* --- images --------------------------------------------------------- *)

(* Compress a document for the Q1-Q20 workload and save it: the one
   path from a document to an image, timed by ingest and used to build
   the image the query workloads serve. *)
let compress (xml : string) : Engine.t * string =
  let engine = Engine.load ~name:doc_name ~workload xml in
  (engine, Engine.save engine)

let spans_of_build = [ "loader.parse"; "loader.build_containers"; "partitioner.optimize"; "partitioner.search" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The image of the seed's document at [scale], and the facts of its
   build: its compression factor and the seconds of each loader and
   partitioner phase. Built once per seed, scale and benchmark binary
   into _gate/e2e-images/, by a forked child, so the build's memory
   does not count in the peak RSS of the process that serves the image
   (no domain exists yet when the query workloads call this). *)
let image ~seed ~scale : string * (string * float) list =
  let dir = "_gate/e2e-images" in
  let file =
    Filename.concat dir
      (Printf.sprintf "s%d-x%g-%s.img" seed scale (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  if not (Sys.file_exists file) then begin
    mkdir_p dir;
    flush_all ();
    match Unix.fork () with
    | 0 ->
      let code =
        try
          Spans.start ();
          let engine, image = compress (generate ~seed ~scale) in
          let spans = Spans.create () in
          Spans.drain spans;
          Spans.stop ();
          let facts =
            ("compression_factor", Engine.compression_factor engine)
            :: ("dropped_spans", float_of_int spans.Spans.dropped)
            :: List.map (fun name -> (name, Spans.total_ms spans name /. 1000.0)) spans_of_build
          in
          let tmp = Printf.sprintf "%s.%d.tmp" file (Unix.getpid ()) in
          Out_channel.with_open_bin tmp (fun oc ->
              List.iter (fun (k, v) -> Printf.fprintf oc "%s %h\n" k v) facts;
              output_string oc "\n";
              output_string oc image);
          Sys.rename tmp file;
          0
        with e ->
          prerr_endline ("building the image failed: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
    | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith "building the image failed")
  end;
  let data = In_channel.with_open_bin file In_channel.input_all in
  let rec header pos acc =
    let nl = String.index_from data pos '\n' in
    if nl = pos then (List.rev acc, nl + 1)
    else
      match String.split_on_char ' ' (String.sub data pos (nl - pos)) with
      | [ k; v ] -> header (nl + 1) ((k, float_of_string v) :: acc)
      | _ -> failwith ("bad image header in " ^ file)
  in
  let facts, start = header 0 [] in
  (String.sub data start (String.length data - start), facts)
