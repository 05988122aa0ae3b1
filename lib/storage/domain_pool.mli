(** Zero-valued decode-pool counters. Every block decodes inline on the
    domain that asks for it; this stub only keeps the benchmark's
    [domain_pool.*] metrics (read by [bench/e2e/layers.ml]) compiling. *)

(** Decode-pool counters; every field is always 0. *)
type stats = { p_tasks : int; p_inline : int; p_wall_ms : float }

(** All-zero counters (read by [bench/e2e/layers.ml]). *)
val snapshot : unit -> stats
