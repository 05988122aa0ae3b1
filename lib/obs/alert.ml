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

   Concurrency: one leaf mutex guards rule state and the recent-
   transition ring. Log appends and metric flips happen after release,
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

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let states : state list ref = ref []
let log_path : string option ref = ref None
let recent_cap = 64
let recent_ring : transition list ref = ref [] (* newest first, capped *)

let set_rules rs =
  with_lock (fun () ->
      states :=
        List.map
          (fun r ->
            { st_rule = r; st_breach = 0; st_clear = 0; st_active = false; st_since = None;
              st_last = None })
          rs;
      recent_ring := []);
  (* pre-register the per-rule gauges so every configured rule shows a
     0/1 series on /metrics from the first scrape *)
  List.iter (fun r -> Metrics.set_gauge ("alert." ^ r.a_name ^ ".active") 0.0) rs

let set_log path = with_lock @@ fun () -> log_path := path

let reset () =
  with_lock @@ fun () ->
  List.iter
    (fun s ->
      s.st_breach <- 0;
      s.st_clear <- 0;
      s.st_active <- false;
      s.st_since <- None;
      s.st_last <- None)
    !states;
  recent_ring := []

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

let evaluate ?now (signals : (string * float) list) : transition list =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let fired, path =
    with_lock @@ fun () ->
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
        !states
    in
    let keep l = if List.length l > recent_cap then List.filteri (fun i _ -> i < recent_cap) l else l in
    recent_ring := keep (List.rev_append fired !recent_ring);
    (fired, !log_path)
  in
  List.iter
    (fun t ->
      Metrics.set_gauge ("alert." ^ t.t_rule ^ ".active") (if t.t_event = "fired" then 1.0 else 0.0);
      Metrics.incr "alert.transitions")
    fired;
  (match path with
  | Some p when fired <> [] -> append_log p fired
  | _ -> ());
  fired

let active () =
  with_lock @@ fun () ->
  List.filter_map
    (fun s -> if s.st_active then Some (s.st_rule.a_name, Option.value s.st_since ~default:0.0) else None)
    !states

let recent () = with_lock @@ fun () -> !recent_ring

let snapshot_json () =
  let sts, ring =
    with_lock @@ fun () ->
    ( List.map
        (fun s ->
          ( s.st_rule,
            s.st_breach,
            s.st_clear,
            s.st_active,
            s.st_since,
            s.st_last ))
        !states,
      !recent_ring )
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
