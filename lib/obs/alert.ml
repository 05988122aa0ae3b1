(* Threshold + sustain-for-K-windows alert engine. See alert.mli.

   The engine is generic over the signal environment: [evaluate]
   receives named readings as an assoc list and knows nothing about
   where they come from (the serve layer assembles drift / error-rate /
   hit-rate signals per watchdog tick). That keeps lib/obs free of any
   dependency on the serving stack while the rules themselves stay
   declarative data.

   Hysteresis: a rule fires only after [a_sustain] consecutive
   breaching evaluations, and resolves only after [a_resolve]
   consecutive clear ones — a single good window inside a bad run (or
   vice versa) resets the opposing streak, so a flapping signal near
   the threshold cannot ring the bell on every tick. A missing signal
   leaves both streaks untouched: an empty watchdog window neither
   advances a firing nor quietly resolves an active alert.

   Concurrency: each alert engine's leaf mutex guards its rule state
   and recent-transition ring. Log appends and metric flips happen after release,
   on the (single) ticker thread that calls [evaluate]. *)

type op = Gt | Lt

type rule = {
  a_name : string;
  a_signal : string;
  a_op : op;
  a_threshold : float;
  a_sustain : int;
  a_resolve : int;
}

type transition = {
  t_rule : string;
  t_event : string; (* "fired" | "resolved" *)
  t_time : float;
  t_value : float;
  t_threshold : float;
}

type state = {
  st_rule : rule;
  mutable st_breach : int; (* consecutive breaching evaluations *)
  mutable st_clear : int; (* consecutive clear evaluations *)
  mutable st_active : bool;
  mutable st_since : float option; (* fire time while active *)
  mutable st_last : float option; (* last reading seen *)
}

type t = {
  lock : Mutex.t;
  states : state list;
  log_path : string option;
  mutable recent_ring : transition list; (* newest first, capped *)
}

let recent_cap = 64

let create ?log rules =
  (* pre-register the per-rule gauges so every configured rule shows a
     0/1 series on /metrics from the first scrape *)
  List.iter (fun r -> Metrics.set_gauge ("alert." ^ r.a_name ^ ".active") 0.0) rules;
  {
    lock = Mutex.create ();
    states =
      List.map
        (fun r ->
          { st_rule = r; st_breach = 0; st_clear = 0; st_active = false; st_since = None;
            st_last = None })
        rules;
    log_path = log;
    recent_ring = [];
  }

let with_lock a f = Mutex.protect a.lock f

let iso8601 (t : float) : string =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let transition_json (t : transition) : Json.t =
  Json.Obj
    [
      ("ts", Json.Str (iso8601 t.t_time));
      ("unix", Json.Num t.t_time);
      ("rule", Json.Str t.t_rule);
      ("event", Json.Str t.t_event);
      ("value", Json.Num t.t_value);
      ("threshold", Json.Num t.t_threshold);
    ]

let append_log path (ts : transition list) =
  try
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter (fun t -> output_string oc (Json.to_string (transition_json t) ^ "\n")) ts)
  with Sys_error _ -> () (* alerting must never take the server down *)

let breaches r v = match r.a_op with Gt -> v > r.a_threshold | Lt -> v < r.a_threshold

let evaluate a ?now (signals : (string * float) list) : transition list =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let fired =
    with_lock a @@ fun () ->
    let fired =
      List.filter_map
        (fun s ->
          let r = s.st_rule in
          match List.assoc_opt r.a_signal signals with
          | None -> None (* missing signal: streaks untouched *)
          | Some v ->
            s.st_last <- Some v;
            if breaches r v then begin
              s.st_breach <- s.st_breach + 1;
              s.st_clear <- 0;
              if (not s.st_active) && s.st_breach >= r.a_sustain then begin
                s.st_active <- true;
                s.st_since <- Some now;
                Some
                  { t_rule = r.a_name; t_event = "fired"; t_time = now; t_value = v;
                    t_threshold = r.a_threshold }
              end
              else None
            end
            else begin
              s.st_clear <- s.st_clear + 1;
              s.st_breach <- 0;
              if s.st_active && s.st_clear >= r.a_resolve then begin
                s.st_active <- false;
                s.st_since <- None;
                Some
                  { t_rule = r.a_name; t_event = "resolved"; t_time = now; t_value = v;
                    t_threshold = r.a_threshold }
              end
              else None
            end)
        a.states
    in
    let keep l = if List.length l > recent_cap then List.filteri (fun i _ -> i < recent_cap) l else l in
    a.recent_ring <- keep (List.rev_append fired a.recent_ring);
    fired
  in
  List.iter
    (fun t ->
      Metrics.set_gauge ("alert." ^ t.t_rule ^ ".active") (if t.t_event = "fired" then 1.0 else 0.0);
      Metrics.incr "alert.transitions")
    fired;
  (match a.log_path with
  | Some p when fired <> [] -> append_log p fired
  | _ -> ());
  fired

let snapshot_json a =
  let sts, ring =
    with_lock a @@ fun () ->
    ( List.map
        (fun s ->
          ( s.st_rule,
            s.st_breach,
            s.st_clear,
            s.st_active,
            s.st_since,
            s.st_last ))
        a.states,
      a.recent_ring )
  in
  let opt_num = function Some v -> Json.Num v | None -> Json.Null in
  let rule_json (r, breach, clear, active, since, last) =
    Json.Obj
      [
        ("rule", Json.Str r.a_name);
        ("signal", Json.Str r.a_signal);
        ("op", Json.Str (match r.a_op with Gt -> ">" | Lt -> "<"));
        ("threshold", Json.Num r.a_threshold);
        ("sustain", Json.Num (float_of_int r.a_sustain));
        ("resolve", Json.Num (float_of_int r.a_resolve));
        ("active", Json.Bool active);
        ("since_unix", opt_num since);
        ("breach_streak", Json.Num (float_of_int breach));
        ("clear_streak", Json.Num (float_of_int clear));
        ("last_value", opt_num last);
      ]
  in
  Json.Obj
    [
      ("rules", Json.List (List.map rule_json sts));
      ( "active",
        Json.List
          (List.filter_map
             (fun (r, _, _, active, since, _) ->
               if active then
                 Some (Json.Obj [ ("rule", Json.Str r.a_name); ("since_unix", opt_num since) ])
               else None)
             sts) );
      ("recent", Json.List (List.map transition_json ring));
    ]
