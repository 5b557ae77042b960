(* Fixed-size domain pool with per-worker work-stealing deques.

   Architecture: [Pool.get ~jobs] spawns [jobs - 1] domains once and
   parks them on a condition variable.  Each [section.run] call is one
   "wave": the calling thread installs a closure, bumps an epoch,
   broadcasts, and participates as worker 0; workers run the closure
   and the last one out signals completion.  The closure drains
   per-worker deques of task indexes — owner pops the front (lowest
   index, most commit-urgent), thieves steal from the back — so load
   balances without a contended global queue while front-of-line tasks
   still finish early.

   Every worker body is wrapped in [Supervisor.protect ~site:Shard]:
   an exception (or injected chaos) kills that shard's remaining work,
   not the process.  Tasks the dead shard never completed simply stay
   [None] in the result array and the caller recomputes them inline —
   graceful degradation to sequential, one shard at a time. *)

let clamp_jobs j = if j < 1 then 1 else if j > 64 then 64 else j

let jobs_from_env () =
  match Sys.getenv_opt "HFT_JOBS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j when j >= 1 -> clamp_jobs j
     | _ -> 1)

type 'ws section = {
  run :
    'a.
    n:int ->
    f:('ws -> int -> 'a) ->
    'a option array * Hft_robust.Failure.t list;
}

(* Scheduler telemetry.  A [collector] accumulates lock-free while the
   pool runs: the per-worker arrays below are written only by their
   owning worker (worker ids are stable across waves), the
   wave/commit-side fields only by the orchestrating thread, and the
   merge in [finish] runs after [launch]'s final lock round-trip — the
   same happens-before edge the result array already relies on.  All of
   it is observational: the engines' task order, results and committed
   telemetry are identical with a collector attached or not. *)
module Stats = struct
  type worker = {
    w_domain : int;
    w_evaluated : int;  (** speculative tasks this worker ran *)
    w_classes : int;  (** committed classes attributed to it *)
    w_steals : int;  (** tasks it took from other workers' deques *)
    w_stolen : int;  (** tasks other workers took from its deque *)
    w_spec_hits : int;
    w_spec_misses : int;
    w_inline : int;  (** inline recomputes (orchestrator only) *)
    w_busy_ns : int;
    w_idle_ns : int;  (** in-wave time not spent on tasks *)
    w_stall_ns : int;  (** commit-window time (orchestrator only) *)
  }

  type t = {
    s_jobs : int;
    s_waves : int;
    s_tasks : int;  (** tasks dispatched across all waves *)
    s_wall_ns : int;
    s_window_fill : int;  (** Σ commit-window occupancy *)
    s_window_cap : int;  (** Σ commit-window capacity *)
    s_critical_ns : int;  (** Σ per-wave max busy + commit stalls *)
    s_workers : worker array;
  }

  let sum_w t f = Array.fold_left (fun a w -> a + f w) 0 t.s_workers
  let busy_ns t = sum_w t (fun w -> w.w_busy_ns)
  let steals t = sum_w t (fun w -> w.w_steals)
  let spec_hits t = sum_w t (fun w -> w.w_spec_hits)
  let spec_misses t = sum_w t (fun w -> w.w_spec_misses)
  let inline t = sum_w t (fun w -> w.w_inline)

  (** Σ busy / (jobs × wall): 1.0 = every domain on useful work for the
      whole campaign. *)
  let utilization t =
    let denom = t.s_jobs * max 1 t.s_wall_ns in
    float_of_int (busy_ns t) /. float_of_int denom

  let occupancy t =
    if t.s_window_cap = 0 then 0.0
    else float_of_int t.s_window_fill /. float_of_int t.s_window_cap

  let spec_miss_rate t =
    if t.s_tasks = 0 then 0.0
    else float_of_int (spec_misses t) /. float_of_int t.s_tasks

  let ms ns = 1e-6 *. float_of_int ns

  let worker_to_json ~wall_ns w =
    Hft_util.Json.Obj
      [ ("domain", Hft_util.Json.Int w.w_domain);
        ("evaluated", Hft_util.Json.Int w.w_evaluated);
        ("classes", Hft_util.Json.Int w.w_classes);
        ("steals", Hft_util.Json.Int w.w_steals);
        ("stolen", Hft_util.Json.Int w.w_stolen);
        ("spec_hits", Hft_util.Json.Int w.w_spec_hits);
        ("spec_misses", Hft_util.Json.Int w.w_spec_misses);
        ("inline", Hft_util.Json.Int w.w_inline);
        ("busy_ms", Hft_util.Json.Float (ms w.w_busy_ns));
        ("idle_ms", Hft_util.Json.Float (ms w.w_idle_ns));
        ("stall_ms", Hft_util.Json.Float (ms w.w_stall_ns));
        ("utilization",
         Hft_util.Json.Float
           (float_of_int w.w_busy_ns /. float_of_int (max 1 wall_ns))) ]

  let to_json t =
    Hft_util.Json.Obj
      [ ("jobs", Hft_util.Json.Int t.s_jobs);
        ("waves", Hft_util.Json.Int t.s_waves);
        ("tasks", Hft_util.Json.Int t.s_tasks);
        ("wall_ms", Hft_util.Json.Float (ms t.s_wall_ns));
        ("critical_ms", Hft_util.Json.Float (ms t.s_critical_ns));
        ("window_fill", Hft_util.Json.Int t.s_window_fill);
        ("window_cap", Hft_util.Json.Int t.s_window_cap);
        ("occupancy", Hft_util.Json.Float (occupancy t));
        ("utilization", Hft_util.Json.Float (utilization t));
        ("steals", Hft_util.Json.Int (steals t));
        ("spec_hits", Hft_util.Json.Int (spec_hits t));
        ("spec_misses", Hft_util.Json.Int (spec_misses t));
        ("inline", Hft_util.Json.Int (inline t));
        ("spec_miss_rate", Hft_util.Json.Float (spec_miss_rate t));
        ("workers",
         Hft_util.Json.List
           (Array.to_list
              (Array.map (worker_to_json ~wall_ns:t.s_wall_ns) t.s_workers))) ]

  (* Degenerate stats for a campaign the engine ran sequentially
     (jobs = 1, or nothing to parallelise): one fully-busy worker, no
     speculation.  Emitted so every bench cell carries a utilization
     field regardless of path. *)
  let sequential ~classes ~wall_ns =
    { s_jobs = 1; s_waves = 0; s_tasks = 0; s_wall_ns = wall_ns;
      s_window_fill = 0; s_window_cap = 0; s_critical_ns = wall_ns;
      s_workers =
        [| { w_domain = 0; w_evaluated = 0; w_classes = classes;
             w_steals = 0; w_stolen = 0; w_spec_hits = 0; w_spec_misses = 0;
             w_inline = 0; w_busy_ns = wall_ns; w_idle_ns = 0;
             w_stall_ns = 0 } |] }

  type collector = {
    c_jobs : int;
    c_t0 : float;
    (* orchestrator-written *)
    mutable c_waves : int;
    mutable c_tasks : int;
    mutable c_window_fill : int;
    mutable c_window_cap : int;
    mutable c_critical_ns : int;
    mutable c_stall_ns : int;
    mutable c_last_wave_end : float option;
    mutable c_commit_flows : int list;  (* bind at the next commit slice *)
    mutable c_flow_base : int;  (* flow-id base of the current wave *)
    mutable c_next_flow : int;
    c_hits : int array;  (* per evaluating worker *)
    c_misses : int array;
    mutable c_inline : int;
    (* owner-written (slot [w] only ever touched by worker [w]) *)
    c_evaluated : int array;
    c_busy_ns : int array;
    c_idle_ns : int array;
    c_steal_from : int array array;  (* [thief].(victim) *)
    c_slices : (int * float * float * int) list array;
        (* per worker, reverse: task, start, dur, stolen_from (-1 = own) *)
    (* wave-scoped *)
    mutable c_owner : int array;  (* task -> evaluating worker, -1 = never *)
    mutable c_busy_snap : int array;  (* busy at wave start *)
  }

  let ns s = int_of_float (s *. 1e9)

  let collector ~jobs =
    { c_jobs = jobs; c_t0 = Hft_obs.Clock.now (); c_waves = 0; c_tasks = 0;
      c_window_fill = 0; c_window_cap = 0; c_critical_ns = 0; c_stall_ns = 0;
      c_last_wave_end = None; c_commit_flows = []; c_flow_base = 0;
      c_next_flow = 0; c_hits = Array.make jobs 0;
      c_misses = Array.make jobs 0; c_inline = 0;
      c_evaluated = Array.make jobs 0; c_busy_ns = Array.make jobs 0;
      c_idle_ns = Array.make jobs 0;
      c_steal_from = Array.init jobs (fun _ -> Array.make jobs 0);
      c_slices = Array.make jobs []; c_owner = [||]; c_busy_snap = [||] }

  (* Close the commit window that has been open since the last wave
     ended: account its duration as orchestrator stall and emit one
     "commit-window" slice on domain 0, terminating the flow arrows of
     every speculation committed inside it. *)
  let flush_commit c now =
    match c.c_last_wave_end with
    | None -> ()
    | Some t_end ->
      c.c_stall_ns <- c.c_stall_ns + max 0 (ns (now -. t_end));
      Hft_obs.Span.add_track ~flow_in:(List.rev c.c_commit_flows)
        ~args:
          [ ("committed", string_of_int (List.length c.c_commit_flows)) ]
        ~domain:0 ~name:"commit-window" ~start:t_end ~dur:(now -. t_end) ();
      c.c_commit_flows <- [];
      c.c_last_wave_end <- None

  let wave_begin c ~n =
    let now = Hft_obs.Clock.now () in
    flush_commit c now;
    c.c_waves <- c.c_waves + 1;
    c.c_tasks <- c.c_tasks + n;
    c.c_flow_base <- c.c_next_flow;
    c.c_next_flow <- c.c_next_flow + n;
    c.c_owner <- Array.make n (-1);
    c.c_busy_snap <- Array.copy c.c_busy_ns

  let wave_end c =
    let now = Hft_obs.Clock.now () in
    (* Flush the workers' task slices to the trace store (orchestrator
       thread; slice lists were owner-written before [launch]
       returned). *)
    Array.iteri
      (fun wid slices ->
        List.iter
          (fun (task, start, dur, stolen_from) ->
            let args =
              ("task", string_of_int task)
              ::
              (if stolen_from >= 0 then
                 [ ("stolen_from", string_of_int stolen_from) ]
               else [])
            in
            Hft_obs.Span.add_track ~flow_out:(c.c_flow_base + task) ~args
              ~domain:wid ~name:"eval" ~start ~dur ())
          (List.rev slices);
        c.c_slices.(wid) <- [])
      c.c_slices;
    let crit = ref 0 in
    Array.iteri
      (fun wid snap ->
        let d = c.c_busy_ns.(wid) - snap in
        if d > !crit then crit := d)
      c.c_busy_snap;
    c.c_critical_ns <- c.c_critical_ns + !crit;
    c.c_last_wave_end <- Some now

  (* Worker-side hooks, called from the pool's task loop. *)
  let worker_begin _c = Hft_obs.Clock.now ()

  let worker_end c wid t_enter =
    let wall = ns (Hft_obs.Clock.now () -. t_enter) in
    let busy = c.c_busy_ns.(wid) - c.c_busy_snap.(wid) in
    c.c_idle_ns.(wid) <- c.c_idle_ns.(wid) + max 0 (wall - busy)

  let task_run c ~wid ~task ~stolen_from run =
    let t0 = Hft_obs.Clock.now () in
    c.c_owner.(task) <- wid;
    c.c_evaluated.(wid) <- c.c_evaluated.(wid) + 1;
    if stolen_from >= 0 then
      c.c_steal_from.(wid).(stolen_from) <-
        c.c_steal_from.(wid).(stolen_from) + 1;
    let r = run () in
    let t1 = Hft_obs.Clock.now () in
    c.c_busy_ns.(wid) <- c.c_busy_ns.(wid) + max 0 (ns (t1 -. t0));
    c.c_slices.(wid) <- (task, t0, t1 -. t0, stolen_from) :: c.c_slices.(wid);
    r

  (* Engine-side hooks: the commit loop calls exactly one of
     [note_hit] / [note_miss] / [note_inline] per dispatched task, which
     is what makes hits + misses + inline = tasks a law rather than an
     approximation. *)
  let note_window c ~filled ~cap =
    c.c_window_fill <- c.c_window_fill + filled;
    c.c_window_cap <- c.c_window_cap + cap

  let owner_of c ~task =
    if task >= 0 && task < Array.length c.c_owner && c.c_owner.(task) >= 0
    then c.c_owner.(task)
    else 0

  let note_hit c ~task =
    let w = owner_of c ~task in
    c.c_hits.(w) <- c.c_hits.(w) + 1;
    c.c_commit_flows <- (c.c_flow_base + task) :: c.c_commit_flows

  let note_miss c ~task =
    let w = owner_of c ~task in
    c.c_misses.(w) <- c.c_misses.(w) + 1

  let note_inline c = c.c_inline <- c.c_inline + 1

  let finish c ~classes =
    let now = Hft_obs.Clock.now () in
    flush_commit c now;
    let wall_ns = max 0 (ns (now -. c.c_t0)) in
    let stolen = Array.make c.c_jobs 0 in
    Array.iteri
      (fun _thief row ->
        Array.iteri (fun v n -> stolen.(v) <- stolen.(v) + n) row)
      c.c_steal_from;
    let hits_other =
      Array.fold_left ( + ) 0 c.c_hits - c.c_hits.(0)
    in
    let workers =
      Array.init c.c_jobs (fun w ->
          { w_domain = w;
            w_evaluated = c.c_evaluated.(w);
            w_classes =
              (if w = 0 then classes - hits_other else c.c_hits.(w));
            w_steals = Array.fold_left ( + ) 0 c.c_steal_from.(w);
            w_stolen = stolen.(w);
            w_spec_hits = c.c_hits.(w);
            w_spec_misses = c.c_misses.(w);
            w_inline = (if w = 0 then c.c_inline else 0);
            w_busy_ns = c.c_busy_ns.(w);
            w_idle_ns = c.c_idle_ns.(w);
            w_stall_ns = (if w = 0 then c.c_stall_ns else 0) })
    in
    { s_jobs = c.c_jobs; s_waves = c.c_waves; s_tasks = c.c_tasks;
      s_wall_ns = wall_ns; s_window_fill = c.c_window_fill;
      s_window_cap = c.c_window_cap;
      s_critical_ns = c.c_critical_ns + c.c_stall_ns; s_workers = workers }
end

(* A bounded deque over a fixed index range; tasks are ints and nobody
   pushes after construction, so two cursors under a mutex suffice. *)
module Deque = struct
  type t = {
    d_lock : Mutex.t;
    d_items : int array;
    mutable d_lo : int;
    mutable d_hi : int;
  }

  let make items =
    { d_lock = Mutex.create (); d_items = items; d_lo = 0;
      d_hi = Array.length items }

  let pop_front d =
    Mutex.lock d.d_lock;
    let r =
      if d.d_lo < d.d_hi then begin
        let v = d.d_items.(d.d_lo) in
        d.d_lo <- d.d_lo + 1;
        Some v
      end
      else None
    in
    Mutex.unlock d.d_lock;
    r

  let steal_back d =
    Mutex.lock d.d_lock;
    let r =
      if d.d_lo < d.d_hi then begin
        let v = d.d_items.(d.d_hi - 1) in
        d.d_hi <- d.d_hi - 1;
        Some v
      end
      else None
    in
    Mutex.unlock d.d_lock;
    r
end

module Pool = struct
  type t = {
    p_jobs : int;
    p_lock : Mutex.t;
    p_work : Condition.t;        (* workers wait here for a new epoch *)
    p_done : Condition.t;        (* the caller waits here for the wave *)
    mutable p_epoch : int;
    mutable p_fn : (int -> unit) option;  (* worker id -> unit *)
    mutable p_finished : int;    (* workers done with the current epoch *)
    mutable p_shutdown : bool;
    mutable p_domains : unit Domain.t list;
  }

  let jobs t = t.p_jobs

  (* Body exceptions never escape [fn] (worker bodies are protected),
     but keep the accounting alive even if one does: a worker that
     failed to run its wave must still report in or the caller hangs. *)
  let run_wave fn wid = try fn wid with _ -> ()

  let worker_loop t wid () =
    (* Tag the domain once for telemetry: spans this worker records
       directly (there are none on the engines' committed paths) carry
       its id, and the Chrome trace maps it to a tid. *)
    Hft_obs.Domain_id.set wid;
    let epoch = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      Mutex.lock t.p_lock;
      while (not t.p_shutdown) && t.p_epoch = !epoch do
        Condition.wait t.p_work t.p_lock
      done;
      if t.p_shutdown then begin
        Mutex.unlock t.p_lock;
        continue_ := false
      end
      else begin
        epoch := t.p_epoch;
        let fn = Option.get t.p_fn in
        Mutex.unlock t.p_lock;
        run_wave fn wid;
        Mutex.lock t.p_lock;
        t.p_finished <- t.p_finished + 1;
        if t.p_finished = t.p_jobs - 1 then Condition.signal t.p_done;
        Mutex.unlock t.p_lock
      end
    done

  (* Run [fn 0] .. [fn (jobs-1)], worker 0 on the calling thread.  The
     final lock round-trip gives the caller a happens-before edge over
     everything the workers wrote. *)
  let launch t fn =
    if t.p_jobs <= 1 then run_wave fn 0
    else begin
      Mutex.lock t.p_lock;
      t.p_fn <- Some fn;
      t.p_finished <- 0;
      t.p_epoch <- t.p_epoch + 1;
      Condition.broadcast t.p_work;
      Mutex.unlock t.p_lock;
      run_wave fn 0;
      Mutex.lock t.p_lock;
      while t.p_finished < t.p_jobs - 1 do
        Condition.wait t.p_done t.p_lock
      done;
      t.p_fn <- None;
      Mutex.unlock t.p_lock
    end

  let shutdown t =
    Mutex.lock t.p_lock;
    t.p_shutdown <- true;
    Condition.broadcast t.p_work;
    Mutex.unlock t.p_lock;
    List.iter Domain.join t.p_domains;
    Mutex.lock t.p_lock;
    t.p_domains <- [];
    Mutex.unlock t.p_lock

  let pools : (int * t) list ref = ref []
  let pools_lock = Mutex.create ()
  let at_exit_installed = ref false

  let create jobs =
    let t =
      { p_jobs = jobs; p_lock = Mutex.create ();
        p_work = Condition.create (); p_done = Condition.create ();
        p_epoch = 0; p_fn = None; p_finished = 0; p_shutdown = false;
        p_domains = [] }
    in
    t.p_domains <-
      List.init (jobs - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
    t

  let get ~jobs =
    let jobs = clamp_jobs jobs in
    Mutex.lock pools_lock;
    let t =
      match List.assoc_opt jobs !pools with
      | Some t -> t
      | None ->
        let t = create jobs in
        pools := (jobs, t) :: !pools;
        if not !at_exit_installed then begin
          at_exit_installed := true;
          at_exit (fun () ->
              let ps =
                Mutex.lock pools_lock;
                let ps = !pools in
                pools := [];
                Mutex.unlock pools_lock;
                ps
              in
              List.iter (fun (_, t) -> shutdown t) ps)
        end;
        t
    in
    Mutex.unlock pools_lock;
    t

  let parallel (type ws) t ?stats ~(init : unit -> ws) (k : ws section -> 'b)
      : 'b =
    (* One lazily-built workspace per worker; slot [w] is only ever
       touched by worker [w] (worker ids are stable across waves), so
       no lock is needed. *)
    let slots : ws option array = Array.make t.p_jobs None in
    let workspace wid =
      match slots.(wid) with
      | Some ws -> ws
      | None ->
        let ws = init () in
        slots.(wid) <- Some ws;
        ws
    in
    let run : type a. n:int -> f:(ws -> int -> a) ->
      a option array * Hft_robust.Failure.t list =
     fun ~n ~f ->
      let results = Array.make n None in
      let fails = ref [] in
      let fails_lock = Mutex.create () in
      let deques =
        Array.init t.p_jobs (fun w ->
            (* Round-robin striping keeps each deque front-loaded with
               low task indexes, so owners work commit-order first. *)
            let mine = ref [] in
            for k = n - 1 downto 0 do
              if k mod t.p_jobs = w then mine := k :: !mine
            done;
            Deque.make (Array.of_list !mine))
      in
      (match stats with Some c -> Stats.wave_begin c ~n | None -> ());
      let body wid =
        let t_enter =
          match stats with Some c -> Stats.worker_begin c | None -> 0.0
        in
        let exec ws ~stolen_from k =
          match stats with
          | None -> results.(k) <- Some (f ws k)
          | Some c ->
            results.(k) <-
              Some (Stats.task_run c ~wid ~task:k ~stolen_from (fun () ->
                        f ws k))
        in
        (match
           Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Shard
             (fun () ->
               let ws = workspace wid in
               let rec drain () =
                 match Deque.pop_front deques.(wid) with
                 | Some k ->
                   exec ws ~stolen_from:(-1) k;
                   drain ()
                 | None -> steal 1
               and steal off =
                 if off < t.p_jobs then
                   let victim = (wid + off) mod t.p_jobs in
                   match Deque.steal_back deques.(victim) with
                   | Some k ->
                     exec ws ~stolen_from:victim k;
                     steal 1
                   | None -> steal (off + 1)
               in
               drain ())
         with
         | Ok () -> ()
         | Error fail ->
           Mutex.lock fails_lock;
           fails := fail :: !fails;
           Mutex.unlock fails_lock);
        match stats with
        | Some c -> Stats.worker_end c wid t_enter
        | None -> ()
      in
      launch t body;
      (match stats with Some c -> Stats.wave_end c | None -> ());
      (results, List.rev !fails)
    in
    k { run }
end
