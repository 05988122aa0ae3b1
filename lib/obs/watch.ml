(* Streaming workload watchdog. See watch.mli.

   A ring of [windows] fixed-duration window buckets, each holding a
   Profile.agg; the request path (Engine.request)
   calls [observe] with exactly the per-query observations the JSONL
   query log records, so the rolling fingerprint and an offline
   `xquec profile` over the same stream agree to the last bit — both
   are Profile.agg_fingerprint over the same additions.

   Concurrency: one mutex per watchdog guards its ring and the derived
   state. [observe] holds it for a few hashtable bumps; [tick] holds it
   while merging at most [windows] small aggs. Both are uncontended
   next to query evaluation. It is a leaf lock: nothing is called while
   holding it except Profile aggregation (pure) — the heat join and
   metrics publication in [tick] happen after release. *)

type status = {
  w_ticks : int;
  w_last_tick : float option;
  w_records : int;
  w_drift : float option;
  w_drift_ewma : float option;
}

let windows = 6
let alpha = 0.3

type bucket = { mutable b_epoch : int; mutable b_agg : Profile.agg }

type t = {
  lock : Mutex.t;
  window_s : float;
  baseline : Profile.fingerprint option;
  ring : bucket array;
  mutable ewma : float option;
  mutable ticks : int;
  mutable last_tick : float option;
  mutable last_drift : float option;
}

let create ~window_seconds ~baseline =
  if not (window_seconds > 0.0) then invalid_arg "Watch.create: window_seconds must be > 0";
  {
    lock = Mutex.create ();
    window_s = window_seconds;
    baseline;
    ring = Array.init windows (fun _ -> { b_epoch = -1; b_agg = Profile.agg_create () });
    ewma = None;
    ticks = 0;
    last_tick = None;
    last_drift = None;
  }

let with_lock w f = Mutex.protect w.lock f

let epoch_of w now = int_of_float (now /. w.window_s)

(* the bucket for [epoch], recycling a slot whose window has passed *)
let bucket_for w epoch =
  let b = w.ring.(epoch mod windows) in
  if b.b_epoch <> epoch then begin
    b.b_epoch <- epoch;
    b.b_agg <- Profile.agg_create ()
  end;
  b.b_agg

let observe w ?now ~(predicates : Ledger.obs list) ~(containers : (string * int) list) () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  with_lock w @@ fun () -> Profile.agg_add (bucket_for w (epoch_of w now)) ~predicates ~containers

(* merge the live buckets (window not yet expired at [now]) *)
let rolling_agg w now =
  let live = epoch_of w now - windows in
  let g = Profile.agg_create () in
  Array.iter (fun b -> if b.b_epoch > live then Profile.agg_merge ~into:g b.b_agg) w.ring;
  g

let fingerprint w ?now () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  with_lock w @@ fun () -> Profile.agg_fingerprint (rolling_agg w now)

let drift_of w fp =
  match (w.baseline, fp.Profile.weights) with
  | Some b, _ :: _ -> Some (Profile.drift b fp)
  | _ -> None

let status_locked w =
  {
    w_ticks = w.ticks;
    w_last_tick = w.last_tick;
    w_records = 0;
    w_drift = w.last_drift;
    w_drift_ewma = w.ewma;
  }

let idle = { w_ticks = 0; w_last_tick = None; w_records = 0; w_drift = None; w_drift_ewma = None }

let status = function None -> idle | Some w -> with_lock w (fun () -> status_locked w)

let tick w ?now ~heat () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let fp, st =
    with_lock w @@ fun () ->
    let fp = Profile.agg_fingerprint (rolling_agg w now) in
    let drift = drift_of w fp in
    (match drift with
    | Some d ->
      w.ewma <- Some (match w.ewma with None -> d | Some e -> (alpha *. d) +. ((1.0 -. alpha) *. e))
    | None -> ());
    w.last_drift <- drift;
    w.ticks <- w.ticks + 1;
    w.last_tick <- Some now;
    (fp, { (status_locked w) with w_records = fp.Profile.records })
  in
  (* metrics publication outside the lock: Metrics has its own *)
  Metrics.set_counter "watch.ticks" st.w_ticks;
  Metrics.set_gauge "watch.window.records" (float_of_int st.w_records);
  Metrics.set_gauge "watch.window.containers" (float_of_int (List.length fp.Profile.containers));
  Metrics.set_gauge "watch.last_tick_unix" now;
  (match st.w_drift with Some d -> Metrics.set_gauge "watch.drift" d | None -> ());
  (match st.w_drift_ewma with Some d -> Metrics.set_gauge "watch.drift_ewma" d | None -> ());
  let recs = Profile.recommend ~heat fp in
  let count action =
    List.length (List.filter (fun (r : Profile.recommendation) -> r.Profile.r_action = action) recs)
  in
  Metrics.set_gauge "watch.recommend.shrink" (float_of_int (count "shrink"));
  Metrics.set_gauge "watch.recommend.grow" (float_of_int (count "grow"));
  Metrics.set_gauge "watch.recommend.keep" (float_of_int (count "keep"));
  st

let snapshot_json ?now ~heat watch =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let fp, st, window_s, base =
    match watch with
    | None -> (Profile.agg_fingerprint (Profile.agg_create ()), idle, 0.0, None)
    | Some w ->
      with_lock w @@ fun () ->
      let fp = Profile.agg_fingerprint (rolling_agg w now) in
      (fp, { (status_locked w) with w_records = fp.Profile.records }, w.window_s, w.baseline)
  in
  let drift_now = match base with Some b when fp.Profile.weights <> [] -> Some (Profile.drift b fp) | _ -> None in
  let opt_num = function Some v -> Json.Num v | None -> Json.Null in
  Json.Obj
    ([
       ("enabled", Json.Bool (watch <> None));
       ("window_s", Json.Num window_s);
       ("windows", Json.Num (float_of_int windows));
       ("ticks", Json.Num (float_of_int st.w_ticks));
       ("last_tick_unix", opt_num st.w_last_tick);
       ("records", Json.Num (float_of_int st.w_records));
       ("baseline", Json.Bool (base <> None));
       ("drift", opt_num drift_now);
       ("drift_ewma", opt_num st.w_drift_ewma);
     ]
    @ Profile.fingerprint_fields ~heat fp)
