(* The single on/off switch for the whole observability layer.

   Every recording entry point (Registry, Span) begins with
   [if not !enabled then ...]: one ref dereference and a branch, so a
   disabled build stays within noise of an uninstrumented one.  Hot
   loops in the engines accumulate into local mutable state and flush
   once per call, so even the enabled overhead is per-invocation, not
   per-iteration. *)

let enabled = ref false

(* Allocation profiling rides the span tree: when on, [Span.with_]
   brackets each phase with [Gc.quick_stat] and folds the minor/major
   word and compaction deltas into the span's attributes.  Off by
   default — a [Gc.quick_stat] pair per span is cheap but not free,
   and the disabled path must stay provably identical. *)
let gc_stats = ref false

let with_enabled v f =
  let prev = !enabled in
  enabled := v;
  Fun.protect ~finally:(fun () -> enabled := prev) f
