(** Per-query resource budgets, armed per domain (Domain.DLS).

    The serving layer {!arm}s a wall-clock and/or decoded-bytes
    allowance on the domain about to evaluate a query; the storage layer
    polls {!check} at every block access and {!charge}s decoded bytes as
    blocks leave the codecs. Crossing an allowance raises {!Exceeded} on
    the evaluating domain at its next poll, which unwinds the query as
    an ordinary exception (no locks are held across block fetches) —
    [xquec serve] maps it to a 408-style response.

    Enforcement is cooperative and block-grained: the overshoot past a
    tripped budget is bounded by one decode batch, and phases that touch
    no container blocks (serializing an already decoded result) run to
    completion. An unarmed domain — every CLI path, the bench, pool
    workers acting on their own behalf — pays one [Domain.DLS] load per
    poll. *)

(** What tripped: [t_kind] is ["wall_ms"] or ["decode_bytes"]; the
    limit and the observed value share that unit (milliseconds or
    bytes, as floats for a uniform error body). *)
type trip = { t_kind : string; t_limit : float; t_observed : float }

(** Raised by {!check} on the polling domain when an allowance is
    exhausted. *)
exception Exceeded of trip

(** An armed budget: start time, allowances, and the atomic
    decoded-byte tally that {!charge} adds to from any domain. *)
type t

(** What a poll or charge site holds: [None] when the capturing domain
    was unarmed (all operations are no-ops), [Some] the armed budget. *)
type handle = t option

(** Arm the calling domain: the next {!check} polls against these
    allowances and {!charge}s accumulate. Non-positive or omitted
    allowances are treated as unlimited; with both unlimited the domain
    stays unarmed. Re-arming replaces the previous budget (the tally
    restarts at zero). *)
val arm : ?wall_ms:float -> ?decode_bytes:int -> unit -> unit

(** Disarm the calling domain (idempotent). The serving layer calls
    this in a [Fun.protect] finalizer so a failed query cannot leak its
    budget onto the next one handled by the same worker. *)
val disarm : unit -> unit

(** The calling domain's budget, to capture into decode closures that
    may execute on another domain ([None] = unarmed). When no domain
    in the process has an armed budget this is a single shared atomic
    load — the block-fetch hot path pays nothing beyond it. *)
val current : unit -> handle

(** Add decoded bytes to the handle's tally (atomic; callable from any
    domain). No-op on [None] or non-positive byte counts. *)
val charge : handle -> int -> unit

(** Decoded bytes charged so far (0 on [None]). *)
val charged : handle -> int

(** Poll the handle: raises {!Exceeded} when a tally or the elapsed
    wall clock has crossed its allowance, else returns. No-op on
    [None]. *)
val check : handle -> unit
