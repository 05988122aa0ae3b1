(** Threshold + sustain-for-K-windows alert engine, evaluated once per
    watchdog window tick.

    Rules are declarative data over named {e signals} — the caller (the
    serve layer) assembles each tick's readings as an assoc list
    ([[("drift", 0.41); ("error_rate", 0.02); ...]]) and passes them to
    {!evaluate}; the engine knows nothing about where the numbers come
    from, which keeps lib/obs independent of the serving stack.

    Hysteresis: a rule fires only after [a_sustain] consecutive
    breaching evaluations and resolves only after [a_resolve]
    consecutive clear ones; each side resets the other's streak, so a
    signal flapping around the threshold cannot fire/resolve on every
    tick. A signal absent from the environment (e.g. no cache lookups
    this window, or an idle server with no computable drift) leaves
    that rule's streaks untouched — it neither advances a firing nor
    quietly resolves an active alert.

    Each firing/resolving transition appends one JSON line to the
    engine's alert log (when {!create} was given one), flips the
    [alert.<rule>.active] gauge (exposed as
    [xquec_alert_active{rule="<rule>"}]), and bumps the
    [alert.transitions] counter.

    Thread-safe behind a leaf mutex per engine; log appends and metric
    flips happen outside it. [?now] exists for deterministic tests. *)

(** Comparison direction: [Gt] breaches above the threshold (drift,
    error rate), [Lt] below it (hit rates). *)
type op = Gt | Lt

(** One alert rule. *)
type rule = {
  a_name : string;  (** rule name, e.g. ["drift_sustained"] *)
  a_signal : string;  (** signal the rule reads, e.g. ["drift"] *)
  a_op : op;  (** breach direction *)
  a_threshold : float;  (** breach boundary (strict compare) *)
  a_sustain : int;  (** consecutive breaches before firing *)
  a_resolve : int;  (** consecutive clears before resolving *)
}

(** One firing or resolving edge. *)
type transition = {
  t_rule : string;  (** rule name *)
  t_event : string;  (** ["fired"] or ["resolved"] *)
  t_time : float;  (** unix time of the evaluation *)
  t_value : float;  (** signal reading that crossed the streak *)
  t_threshold : float;  (** the rule's threshold *)
}

(** An alert engine: its rules, their live state, its log path and
    its recent transitions. Each server owns one. *)
type t

(** An engine over [rules], pre-registering every rule's 0-valued
    [active] gauge so configured rules are visible on [/metrics] before
    anything fires. Transitions append [{ts,unix,rule,event,value,
    threshold}] lines to [log] when given; write failures are
    swallowed — alerting must never take the server down. *)
val create : ?log:string -> rule list -> t

(** Evaluate every rule against this tick's signal readings and return
    the transitions that occurred (usually none). *)
val evaluate : t -> ?now:float -> (string * float) list -> transition list

(** The [GET /alerts] payload: every rule with its configuration and
    live state, the active subset, and the recent transitions (newest
    first, bounded). *)
val snapshot_json : t -> Json.t
