type kind = Counter | Gauge | Timer | Histogram

(* Log-bucketed value distribution: bucket [i >= 1] covers
   (floor·2^(i-1), floor·2^i], bucket 0 everything at or below the
   floor.  40 octaves from 100 ns span sub-microsecond timers up to
   counts around 5·10^4 s / 5·10^10 units, and the update is one
   [log2] + array increment — no allocation on the observe path. *)
let n_buckets = 40
let bucket_floor = 1e-7

let bucket_index v =
  if v <= bucket_floor then 0
  else begin
    let i = 1 + int_of_float (Float.log2 (v /. bucket_floor)) in
    if i >= n_buckets then n_buckets - 1 else i
  end

let bucket_upper i = if i = 0 then bucket_floor else bucket_floor *. (2.0 ** float_of_int i)

type t = {
  name : string;
  kind : kind;
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  mutable last : float;
  buckets : int array;
}

type snapshot = {
  s_name : string;
  s_kind : kind;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_last : float;
  s_buckets : int array;
}

let create ~kind name =
  { name; kind; count = 0; sum = 0.0; min = infinity; max = neg_infinity;
    last = 0.0; buckets = Array.make n_buckets 0 }

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Timer -> "timer"
  | Histogram -> "histogram"

let incr ?(by = 1) t =
  t.count <- t.count + by;
  t.sum <- t.sum +. float_of_int by;
  (* [last] is the running total, so counter snapshots headline the
     cumulative value rather than the most recent delta. *)
  t.last <- t.sum

let set t v =
  if t.count = 0 || v < t.min then t.min <- v;
  if t.count = 0 || v > t.max then t.max <- v;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  t.last <- v

(* Timers and histograms additionally bin the observation so snapshots
   can report percentiles; gauges ([set]) keep the streaming summary
   only. *)
let observe t v =
  set t v;
  let i = bucket_index v in
  t.buckets.(i) <- t.buckets.(i) + 1

let snapshot t =
  { s_name = t.name; s_kind = t.kind; s_count = t.count; s_sum = t.sum;
    s_min = t.min; s_max = t.max; s_last = t.last;
    s_buckets = Array.copy t.buckets }

let value s =
  match s.s_kind with
  | Counter -> s.s_sum
  | Gauge -> s.s_last
  | Timer | Histogram -> s.s_sum

let mean s =
  if s.s_count = 0 then 0.0 else s.s_sum /. float_of_int s.s_count

(* Bucketed quantile estimate: walk the cumulative histogram to the
   bucket holding the q-th observation and report its upper bound,
   clamped to the observed [min, max] — so an all-equal stream answers
   exactly, and any answer is off by at most one octave. *)
let percentile s q =
  let observed = Array.fold_left ( + ) 0 s.s_buckets in
  if observed = 0 then 0.0
  else begin
    let target =
      let t = int_of_float (Float.ceil (q *. float_of_int observed)) in
      if t < 1 then 1 else if t > observed then observed else t
    in
    let rec go i cum =
      if i >= n_buckets then s.s_max
      else begin
        let cum = cum + s.s_buckets.(i) in
        if cum >= target then
          Float.min s.s_max (Float.max s.s_min (bucket_upper i))
        else go (i + 1) cum
      end
    in
    go 0 0
  end

let snapshot_to_json s =
  let headline =
    (* Counters are integral by construction; keep them JSON ints so
       consumers need no float coercion. *)
    match s.s_kind with
    | Counter -> Hft_util.Json.Int s.s_count
    | Gauge | Timer | Histogram -> Hft_util.Json.Float (value s)
  in
  let base =
    [ ("name", Hft_util.Json.String s.s_name);
      ("kind", Hft_util.Json.String (kind_to_string s.s_kind));
      ("count", Hft_util.Json.Int s.s_count);
      ("value", headline) ]
  in
  let summary =
    match s.s_kind with
    | Counter -> []
    | Gauge | Timer | Histogram ->
      if s.s_count = 0 then []
      else
        [ ("sum", Hft_util.Json.Float s.s_sum);
          ("min", Hft_util.Json.Float s.s_min);
          ("max", Hft_util.Json.Float s.s_max);
          ("mean", Hft_util.Json.Float (mean s)) ]
  in
  let tail =
    match s.s_kind with
    | Timer | Histogram ->
      if s.s_count = 0 then []
      else
        [ ("p50", Hft_util.Json.Float (percentile s 0.5));
          ("p95", Hft_util.Json.Float (percentile s 0.95)) ]
    | Counter | Gauge -> []
  in
  Hft_util.Json.Obj (base @ summary @ tail)
