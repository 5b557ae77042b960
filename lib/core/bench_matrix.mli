(** The [hft-bench/1] document.  Every flow of every behaviour (tseng and
    diffeq with [quick]) is synthesised at [width] and run through the
    test campaign at fixed knobs: backtrack limit 20, 2 frames, seed
    2024, 64 patterns, one fault in 40 with [quick], else in 20.  Each
    cell holds the timings, counters, waterfall and DFT report of its
    unguided leg, a [guided] object for the guided leg unless [naive]
    (which selects {!Flow.Naive}), and a [jobs_matrix] leg per domain
    count in [jobs].  Observability is switched on and reset per leg. *)

(** The text table's columns. *)
val header : string list

(** The document, and one table row per cell. *)
val run :
  quick:bool -> width:int -> naive:bool -> jobs:int list ->
  Hft_util.Json.t * string list list
