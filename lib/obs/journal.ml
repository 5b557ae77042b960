(* Structured event journal: a bounded ring buffer of typed events
   emitted from the gate/scan/core layers behind [Config.enabled].

   Events are recorded with a wall-clock stamp and a global sequence
   number, so the exported JSONL reads as a flight-recorder tape: what
   the engines did, in order, with the per-record cost of one array
   store.  The ring is bounded — a runaway campaign overwrites its own
   oldest history rather than growing without limit — and the number of
   overwritten records is reported ([dropped]). *)

type event =
  | Phase_begin of { name : string }
  | Phase_end of { name : string; elapsed : float }
  | Collapse of { faults : int; classes : int }
  | Atpg_target of { cls : int; rep : string; frames : int }
  | Podem_result of { cls : int; outcome : string; frames : int;
                      backtracks : int }
  | Static_untestable of { cls : int; frames : int }
  | Backtrack of { backtracks : int; decisions : int; implications : int }
  | Test_generated of { test : int; frames : int }
  | Fault_dropped of { cls : int; test : int }
  | Class_resolved of { cls : int; outcome : string; faults : int }
  | Fsim_run of { faults : int; detected : int; patterns : int; events : int }
  | Retry of { site : string; attempt : int; budget : int }
  | Degraded of { site : string; action : string }
  | Checkpoint of { classes : int; tests : int }
  | Shard_stats of { jobs : int; waves : int; tasks : int; steals : int;
                     spec_hits : int; spec_misses : int; inline : int;
                     utilization : float }
  | Note of { key : string; value : string }

type entry = { e_seq : int; e_time : float; e_domain : int; e_event : event }

let default_capacity = 4096
let cap = ref default_capacity
let buf : entry option array ref = ref (Array.make default_capacity None)
let total = ref 0

(* Ring, counters and capacity are guarded by one mutex so records from
   worker domains are never torn or lost.  Writes route through
   {!Capture} first: a capturing domain defers the record onto its tape
   instead of touching the ring (see capture.mli). *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let capacity () = locked (fun () -> !cap)

let reset () =
  locked (fun () ->
      Array.fill !buf 0 (Array.length !buf) None;
      total := 0)

let set_capacity n =
  if n < 1 then invalid_arg "Hft_obs.Journal.set_capacity";
  locked (fun () ->
      cap := n;
      buf := Array.make n None;
      total := 0)

let recorded () = locked (fun () -> !total)
let dropped () = locked (fun () -> max 0 (!total - !cap))

(* The domain stamp is taken where the ring store happens, so entries a
   worker deferred onto a capture tape get domain 0 at replay time (the
   orchestrator performs the write) — which is what keeps committed
   tapes bit-identical across jobs counts.  Only direct worker-side
   records (there are none in the engines today) would carry a nonzero
   domain. *)
let record_now ev =
  locked (fun () ->
      !buf.(!total mod !cap) <-
        Some { e_seq = !total; e_time = Clock.now ();
               e_domain = Domain_id.get (); e_event = ev };
      incr total)

let record ev =
  if !Config.enabled then
    if not (Capture.defer (fun () -> record_now ev)) then record_now ev

(* Run [f] against a scratch ring of the same capacity, restoring ring
   and counters afterwards.  Events recorded inside are invisible
   outside. *)
let isolated f =
  let saved_buf, saved_total =
    locked (fun () ->
        let s = (!buf, !total) in
        buf := Array.make !cap None;
        total := 0;
        s)
  in
  Fun.protect
    ~finally:(fun () ->
      locked (fun () ->
          buf := saved_buf;
          total := saved_total))
    f

let entries () =
  locked (fun () ->
      let n = min !total !cap in
      let first = !total - n in
      List.init n (fun i ->
          match !buf.((first + i) mod !cap) with
          | Some e -> e
          | None -> assert false))

let event_type = function
  | Phase_begin _ -> "phase_begin"
  | Phase_end _ -> "phase_end"
  | Collapse _ -> "collapse"
  | Atpg_target _ -> "atpg_target"
  | Podem_result _ -> "podem_result"
  | Static_untestable _ -> "static_untestable"
  | Backtrack _ -> "backtrack"
  | Test_generated _ -> "test_generated"
  | Fault_dropped _ -> "fault_dropped"
  | Class_resolved _ -> "class_resolved"
  | Fsim_run _ -> "fsim_run"
  | Retry _ -> "retry"
  | Degraded _ -> "degraded"
  | Checkpoint _ -> "checkpoint"
  | Shard_stats _ -> "shard_stats"
  | Note _ -> "note"

let event_fields ev =
  let open Hft_util.Json in
  match ev with
  | Phase_begin { name } -> [ ("name", String name) ]
  | Phase_end { name; elapsed } ->
    [ ("name", String name); ("elapsed_ms", Float (1e3 *. elapsed)) ]
  | Collapse { faults; classes } ->
    [ ("faults", Int faults); ("classes", Int classes) ]
  | Atpg_target { cls; rep; frames } ->
    [ ("class", Int cls); ("rep", String rep); ("frames", Int frames) ]
  | Podem_result { cls; outcome; frames; backtracks } ->
    [ ("class", Int cls); ("outcome", String outcome);
      ("frames", Int frames); ("backtracks", Int backtracks) ]
  | Static_untestable { cls; frames } ->
    [ ("class", Int cls); ("frames", Int frames) ]
  | Backtrack { backtracks; decisions; implications } ->
    [ ("backtracks", Int backtracks); ("decisions", Int decisions);
      ("implications", Int implications) ]
  | Test_generated { test; frames } ->
    [ ("test", Int test); ("frames", Int frames) ]
  | Fault_dropped { cls; test } -> [ ("class", Int cls); ("test", Int test) ]
  | Class_resolved { cls; outcome; faults } ->
    [ ("class", Int cls); ("outcome", String outcome);
      ("faults", Int faults) ]
  | Fsim_run { faults; detected; patterns; events } ->
    [ ("faults", Int faults); ("detected", Int detected);
      ("patterns", Int patterns); ("events", Int events) ]
  | Retry { site; attempt; budget } ->
    [ ("site", String site); ("attempt", Int attempt);
      ("budget", Int budget) ]
  | Degraded { site; action } ->
    [ ("site", String site); ("action", String action) ]
  | Checkpoint { classes; tests } ->
    [ ("classes", Int classes); ("tests", Int tests) ]
  | Shard_stats { jobs; waves; tasks; steals; spec_hits; spec_misses;
                  inline; utilization } ->
    [ ("jobs", Int jobs); ("waves", Int waves); ("tasks", Int tasks);
      ("steals", Int steals); ("spec_hits", Int spec_hits);
      ("spec_misses", Int spec_misses); ("inline", Int inline);
      ("utilization", Float utilization) ]
  | Note { key; value } -> [ ("key", String key); ("value", String value) ]

let entry_to_json e =
  Hft_util.Json.Obj
    (("seq", Hft_util.Json.Int e.e_seq)
     :: ("time", Hft_util.Json.Float e.e_time)
     :: ("domain", Hft_util.Json.Int e.e_domain)
     :: ("type", Hft_util.Json.String (event_type e.e_event))
     :: event_fields e.e_event)

(* One JSON object per line; an empty journal is the empty string, so
   consumers can `wc -l` the tape. *)
let to_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Hft_util.Json.to_string (entry_to_json e));
      Buffer.add_char b '\n')
    (entries ());
  Buffer.contents b
