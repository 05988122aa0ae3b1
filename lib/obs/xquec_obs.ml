(* Xquec_obs: the telemetry substrate — span tracing, a metrics
   registry, and profiled-plan EXPLAIN — shared by the loader, the
   storage layer, the codecs, the executor and the CLI.

   Everything is off by default; [set_enabled true] (or the CLI's
   --stats / --trace-out / explain paths) turns the global sinks on.
   Disabled instrumentation costs one ref load + branch per site. *)

module Json = Json
module Trace = Trace
module Metrics = Metrics
module Explain = Explain
module Query_log = Query_log
module Expo = Expo
module Hammer = Hammer
module Ledger = Ledger
module Gate = Gate
module Heat = Heat
module Profile = Profile
module Watch = Watch
module Alert = Alert

let set_enabled (b : bool) : unit = Control.enabled := b

let is_enabled () : bool = !Control.enabled

(** Enable collection, run [f], restore the previous state. *)
let with_enabled (f : unit -> 'a) : 'a =
  let prev = !Control.enabled in
  Control.enabled := true;
  Fun.protect ~finally:(fun () -> Control.enabled := prev) f

(** Clear every sink (metrics registry and trace ring buffer). *)
let reset () : unit =
  Metrics.reset ();
  Trace.clear ()
