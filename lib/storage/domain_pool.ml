(* Kept for bench/e2e/layers.ml, whose domain_pool.* metrics read these zeros. *)
type stats = { p_tasks : int; p_inline : int; p_wall_ms : float }

let snapshot () = { p_tasks = 0; p_inline = 0; p_wall_ms = 0.0 }
