(** One named instrument: monotonic counter, gauge, histogram-style
    timer, or raw-valued histogram.

    Timers and histograms keep a count/sum/min/max streaming summary
    {e plus} a log-bucketed distribution (40 power-of-two buckets from
    a 100 ns floor), so snapshots report p50/p95 as well as the mean —
    heavy-tailed series (PODEM time per fault, fanout-cone sizes) hide
    their tail behind a mean.  Updates stay O(1) and allocation-free. *)

type kind = Counter | Gauge | Timer | Histogram

type t

(** Immutable copy of a metric's state, for reporting. *)
type snapshot = {
  s_name : string;
  s_kind : kind;
  s_count : int;  (** counter value, or number of observations *)
  s_sum : float;
  s_min : float;  (** [infinity] when no observation yet *)
  s_max : float;  (** [neg_infinity] when no observation yet *)
  s_last : float;
      (** gauges/timers: the most recent observation; counters: the
          running total *)
  s_buckets : int array;  (** log-bucket counts (timers/histograms) *)
}

val create : kind:kind -> string -> t
val kind_to_string : kind -> string

(** Counter increment (default 1).  Maintains [last] as the cumulative
    total. *)
val incr : ?by:int -> t -> unit

(** Gauge assignment; also maintains the min/max/sum summary. *)
val set : t -> float -> unit

(** Timer/histogram observation (seconds, or any unit the caller
    chooses); also bins the value for {!percentile}. *)
val observe : t -> float -> unit

val snapshot : t -> snapshot

(** Headline value: counters report their total, gauges their last
    value, timers/histograms their sum. *)
val value : snapshot -> float

val mean : snapshot -> float

(** [percentile s q] — bucketed quantile estimate for an {!observe}
    stream ([q] in [0,1]), clamped to the observed min/max, exact for
    all-equal streams and otherwise within one power-of-two bucket.
    0 when nothing was observed. *)
val percentile : snapshot -> float -> float

(** Number of log buckets in every histogram (array length of
    [s_buckets]). *)
val n_buckets : int

val snapshot_to_json : snapshot -> Hft_util.Json.t
