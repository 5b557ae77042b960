(* Rendering of registry snapshots: fixed-width table for humans, JSON
   for machines.  Kept apart from Registry so the registry itself has
   no opinion about presentation.  Also hosts the Chrome trace-event
   exporter for the span tree (load the file in chrome://tracing or
   https://ui.perfetto.dev). *)

let fmt_value (s : Metric.snapshot) =
  match s.Metric.s_kind with
  | Metric.Counter -> string_of_int s.Metric.s_count
  | Metric.Gauge -> Printf.sprintf "%g" s.Metric.s_last
  | Metric.Timer -> Printf.sprintf "%.3f ms" (1e3 *. s.Metric.s_sum)
  | Metric.Histogram -> Printf.sprintf "%g" s.Metric.s_sum

let fmt_detail (s : Metric.snapshot) =
  match s.Metric.s_kind with
  | Metric.Counter -> ""
  | Metric.Gauge ->
    if s.Metric.s_count <= 1 then ""
    else Printf.sprintf "min %g, max %g" s.Metric.s_min s.Metric.s_max
  | Metric.Timer ->
    if s.Metric.s_count = 0 then ""
    else
      Printf.sprintf "n=%d, mean %.3f ms, p50 %.3f ms, p95 %.3f ms, max %.3f ms"
        s.Metric.s_count
        (1e3 *. Metric.mean s)
        (1e3 *. Metric.percentile s 0.5)
        (1e3 *. Metric.percentile s 0.95)
        (1e3 *. s.Metric.s_max)
  | Metric.Histogram ->
    if s.Metric.s_count = 0 then ""
    else
      Printf.sprintf "n=%d, mean %g, p50 %g, p95 %g, max %g" s.Metric.s_count
        (Metric.mean s)
        (Metric.percentile s 0.5)
        (Metric.percentile s 0.95)
        s.Metric.s_max

let metrics_table ?(snapshot = Registry.snapshot ()) () =
  match snapshot with
  | [] -> "(no metrics recorded)\n"
  | snaps ->
    Hft_util.Pretty.render ~header:[ "metric"; "kind"; "value"; "detail" ]
      (List.map
         (fun s ->
           [ s.Metric.s_name; Metric.kind_to_string s.Metric.s_kind;
             fmt_value s; fmt_detail s ])
         snaps)

let metrics_json ?(snapshot = Registry.snapshot ()) () =
  Hft_util.Json.Obj
    (List.map (fun s -> (s.Metric.s_name, Metric.snapshot_to_json s)) snapshot)

(* Chrome trace-event format: complete ("ph":"X") events with
   microsecond timestamps relative to the earliest recorded instant, all
   on the orchestrator's tid 0; nesting is implied by time containment,
   which holds by construction — a child span opens after and closes
   before its parent. *)
let chrome_trace ?(roots = Span.roots ()) () =
  let t0 =
    List.fold_left (fun acc r -> Float.min acc (Span.start r)) infinity roots
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let rec emit acc sp =
    let ev =
      Hft_util.Json.Obj
        [ ("name", Hft_util.Json.String (Span.name sp));
          ("ph", Hft_util.Json.String "X");
          ("ts", Hft_util.Json.Float (1e6 *. (Span.start sp -. t0)));
          ("dur", Hft_util.Json.Float (1e6 *. Span.elapsed sp));
          ("pid", Hft_util.Json.Int 1);
          ("tid", Hft_util.Json.Int 0);
          ("args",
           Hft_util.Json.Obj
             (List.map
                (fun (k, v) -> (k, Hft_util.Json.String v))
                (Span.attrs sp))) ]
    in
    List.fold_left emit (ev :: acc) (Span.children sp)
  in
  Hft_util.Json.Obj
    [ ("traceEvents",
       Hft_util.Json.List (List.rev (List.fold_left emit [] roots)));
      ("displayTimeUnit", Hft_util.Json.String "ms") ]

(* Self-time attribution over the span tree: a span's self time is its
   elapsed minus its children's (clamped at 0 — children measured on
   the same clock can overrun their parent by jitter only), aggregated
   by span name.  Sorted by descending self time, then name. *)
let self_times ?(roots = Span.roots ()) () =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let rec go sp =
    let kids = Span.children sp in
    let child_t = List.fold_left (fun a c -> a +. Span.elapsed c) 0.0 kids in
    let self = Float.max 0.0 (Span.elapsed sp -. child_t) in
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl (Span.name sp)) in
    Hashtbl.replace tbl (Span.name sp) (prev +. self);
    List.iter go kids
  in
  List.iter go roots;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (n1, t1) (n2, t2) ->
         match compare t2 t1 with 0 -> compare n1 n2 | c -> c)

(* flamegraph.pl folded-stack format: one "a;b;c <value>" line per
   distinct span path, value = integer self-time microseconds.  Lines
   sort lexicographically, so equal inputs fold to byte-equal output. *)
let folded_stacks ?(roots = Span.roots ()) () =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add path sec =
    let us = int_of_float ((1e6 *. sec) +. 0.5) in
    if us > 0 then
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl path) in
      Hashtbl.replace tbl path (prev + us)
  in
  let rec go prefix sp =
    let path =
      if prefix = "" then Span.name sp else prefix ^ ";" ^ Span.name sp
    in
    let kids = Span.children sp in
    let child_t = List.fold_left (fun a c -> a +. Span.elapsed c) 0.0 kids in
    add path (Float.max 0.0 (Span.elapsed sp -. child_t));
    List.iter (go path) kids
  in
  List.iter (go "") roots;
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let b = Buffer.create 1024 in
  List.iter
    (fun (path, us) -> Buffer.add_string b (Printf.sprintf "%s %d\n" path us))
    (List.sort compare lines);
  Buffer.contents b
