(* Process-global metric registry.

   Names are dotted paths ([hft.podem.backtracks]); the catalogue in
   use is documented in the README's Observability section.  A name is
   bound to its kind on first use; re-registering with another kind is
   a programming error and raises.

   The table and the metric mutations behind [incr]/[set]/[observe]/
   [record] are guarded by one mutex.  Writes route through {!Capture}:
   a domain in capture mode defers the write onto its tape instead of
   touching the shared state (see capture.mli), so the engine writes a
   worker domain makes (PODEM, the salvage search) reach the table only
   when the commit thread replays the class's tape.  The lock serves
   the orchestrator, the [hft.chaos.injections] count of a Shard-site
   injection, which kills a worker before it captures anything, and
   writers that share the registry across domains directly (test_par's
   registry hammer). *)

let table : (string, Metric.t) Hashtbl.t = Hashtbl.create 64

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Callers must hold [lock]. *)
let find_or_create_unlocked ~kind name =
  match Hashtbl.find_opt table name with
  | Some m ->
    if Metric.snapshot m |> fun s -> s.Metric.s_kind <> kind then
      invalid_arg
        (Printf.sprintf "Hft_obs.Registry: %s re-registered with new kind"
           name);
    m
  | None ->
    let m = Metric.create ~kind name in
    Hashtbl.replace table name m;
    m

let find_or_create ~kind name = locked (fun () -> find_or_create_unlocked ~kind name)

let counter name = find_or_create ~kind:Metric.Counter name
let gauge name = find_or_create ~kind:Metric.Gauge name
let timer name = find_or_create ~kind:Metric.Timer name
let histogram name = find_or_create ~kind:Metric.Histogram name

let incr_now ?by name =
  locked (fun () ->
      Metric.incr ?by (find_or_create_unlocked ~kind:Metric.Counter name))

let incr ?by name =
  if !Config.enabled then
    if not (Capture.defer (fun () -> incr_now ?by name)) then incr_now ?by name

let set_now name v =
  locked (fun () ->
      Metric.set (find_or_create_unlocked ~kind:Metric.Gauge name) v)

let set name v =
  if !Config.enabled then
    if not (Capture.defer (fun () -> set_now name v)) then set_now name v

let observe_now name v =
  locked (fun () ->
      Metric.observe (find_or_create_unlocked ~kind:Metric.Timer name) v)

let observe name v =
  if !Config.enabled then
    if not (Capture.defer (fun () -> observe_now name v)) then observe_now name v

let record_now name v =
  locked (fun () ->
      Metric.observe (find_or_create_unlocked ~kind:Metric.Histogram name) v)

let record name v =
  if !Config.enabled then
    if not (Capture.defer (fun () -> record_now name v)) then record_now name v

let record_ints_now name a n =
  locked (fun () ->
      let m = find_or_create_unlocked ~kind:Metric.Histogram name in
      for i = 0 to n - 1 do
        Metric.observe m (float_of_int a.(i))
      done)

(* The caller may reuse [a] once this returns, so a deferred batch
   keeps its own copy. *)
let record_ints name a n =
  if !Config.enabled && n > 0 then
    if Capture.active () then begin
      let a = Array.sub a 0 n in
      ignore (Capture.defer (fun () -> record_ints_now name a n))
    end
    else record_ints_now name a n

let time name f =
  if not !Config.enabled then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> observe name (Clock.now () -. t0)) f
  end

let find name =
  locked (fun () -> Option.map Metric.snapshot (Hashtbl.find_opt table name))

let value name =
  match find name with None -> 0.0 | Some s -> Metric.value s

let count name =
  match find name with None -> 0 | Some s -> s.Metric.s_count

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun _ m acc -> Metric.snapshot m :: acc) table [])
  |> List.sort (fun a b -> compare a.Metric.s_name b.Metric.s_name)

let reset () = locked (fun () -> Hashtbl.reset table)

(* Run [f] against a scratch registry: the live bindings are parked,
   [f] sees an empty table, and the bindings are restored afterwards
   (the [Metric.t] values themselves are untouched — only table
   membership moves).  Exception-safe via [Fun.protect]. *)
let isolated f =
  let saved =
    locked (fun () ->
        let s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] in
        Hashtbl.reset table;
        s)
  in
  Fun.protect
    ~finally:(fun () ->
      locked (fun () ->
          Hashtbl.reset table;
          List.iter (fun (k, v) -> Hashtbl.replace table k v) saved))
    f
