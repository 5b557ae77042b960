(* Library root: re-exports the observability toolkit and the global
   switch, so client code reads [Hft_obs.enabled := true],
   [Hft_obs.Span.with_ "podem" ...], [Hft_obs.Registry.incr ...]. *)

module Config = Config
module Clock = Clock
module Domain_id = Domain_id
module Metric = Metric
module Capture = Capture
module Registry = Registry
module Span = Span
module Ledger = Ledger
module Export = Export
module Table = Table

let enabled = Config.enabled
let with_enabled = Config.with_enabled

let reset () =
  Registry.reset ();
  Span.reset ();
  Ledger.reset ()

(* Nest the per-module isolations so [f] sees a completely fresh
   recorder (empty registry/trace/ledger) and the caller's
   state is untouched when [f] returns or raises.  The fuzz campaign
   runs its oracle engine checks in here: the oracles [reset ()] and
   read the ledger freely without erasing the campaign's own
   telemetry. *)
let isolated f =
  Registry.isolated (fun () ->
      Span.isolated (fun () -> Ledger.isolated f))
