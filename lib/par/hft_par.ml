(* Fixed-size domain pool handing out task indexes from one counter.

   Architecture: [Pool.get ~jobs] spawns [jobs - 1] domains once and
   parks them on a condition variable.  Each [section.run] call is one
   "wave": the calling thread installs a closure, bumps an epoch,
   broadcasts, and participates as worker 0; workers run the closure
   and the last one out signals completion.  The closure claims task
   indexes from one atomic counter per wave (the self-scheduling loop
   of Tang & Yew, ICPP 1986): indexes go out lowest first, which is the
   engines' commit order, and whichever worker is idle claims the next
   one, so load balances with no per-worker queues.

   Every worker body is wrapped in [Supervisor.protect ~site:Shard]:
   an exception (or injected chaos) kills that shard, not the process.
   The other workers keep claiming, so only the task a dead shard had
   claimed and not finished stays [None] in the result array, and the
   caller recomputes it inline. *)

let clamp_jobs j = if j < 1 then 1 else if j > 64 then 64 else j

type 'ws section = {
  run :
    'a.
    n:int ->
    f:('ws -> int -> 'a) ->
    'a option array * Hft_robust.Failure.t list;
}

(* Scheduler telemetry.  A [collector] accumulates lock-free while the
   pool runs: the per-worker busy-time slots below are written only by
   their owning worker (worker ids are stable across waves), everything
   else only by the orchestrating thread, and the slots are read after
   [launch]'s final lock round-trip — the same happens-before edge the
   result array already relies on.  All of it is observational: the
   collector reads clocks and counts, and changes no task order, result
   or committed telemetry. *)
module Stats = struct
  type t = {
    s_jobs : int;
    s_waves : int;
    s_tasks : int;
    s_wall_ns : int;
    s_critical_ns : int;
    s_busy_ns : int;
    s_spec_hits : int;
    s_spec_misses : int;
    s_inline : int;
  }

  let busy_ns t = t.s_busy_ns
  let steals (_ : t) = 0
  let spec_misses t = t.s_spec_misses
  let inline t = t.s_inline

  (** Σ busy / (jobs × wall): 1.0 = every domain on useful work for the
      whole campaign. *)
  let utilization t =
    let denom = t.s_jobs * max 1 t.s_wall_ns in
    float_of_int t.s_busy_ns /. float_of_int denom

  let to_json t =
    let ms ns = Hft_util.Json.Float (1e-6 *. float_of_int ns) in
    Hft_util.Json.Obj
      [ ("jobs", Hft_util.Json.Int t.s_jobs);
        ("waves", Hft_util.Json.Int t.s_waves);
        ("tasks", Hft_util.Json.Int t.s_tasks);
        ("wall_ms", ms t.s_wall_ns);
        ("critical_ms", ms t.s_critical_ns);
        ("busy_ms", ms t.s_busy_ns);
        ("utilization", Hft_util.Json.Float (utilization t));
        ("spec_hits", Hft_util.Json.Int t.s_spec_hits);
        ("spec_misses", Hft_util.Json.Int t.s_spec_misses);
        ("inline", Hft_util.Json.Int t.s_inline) ]

  (* A campaign the engine ran sequentially (jobs = 1, or nothing to
     parallelise): one fully-busy worker, no speculation.  Emitted so
     every campaign carries a utilization figure regardless of path. *)
  let sequential ~wall_ns =
    { s_jobs = 1; s_waves = 0; s_tasks = 0; s_wall_ns = wall_ns;
      s_critical_ns = wall_ns; s_busy_ns = wall_ns; s_spec_hits = 0;
      s_spec_misses = 0; s_inline = 0 }

  type collector = {
    c_jobs : int;
    c_t0 : float;
    (* orchestrator-written *)
    mutable c_waves : int;
    mutable c_tasks : int;
    mutable c_busy_ns : int;
    mutable c_critical_ns : int;
    mutable c_wave_end : float option;  (* open commit window's start *)
    mutable c_hits : int;
    mutable c_misses : int;
    mutable c_inline : int;
    (* owner-written: slot [w] is only ever touched by worker [w] *)
    c_wave_busy_ns : int array;  (* reset at each wave *)
  }

  let ns s = int_of_float (s *. 1e9)

  let collector ~jobs =
    { c_jobs = jobs; c_t0 = Hft_obs.Clock.now (); c_waves = 0; c_tasks = 0;
      c_busy_ns = 0; c_critical_ns = 0; c_wave_end = None; c_hits = 0;
      c_misses = 0; c_inline = 0; c_wave_busy_ns = Array.make jobs 0 }

  (* Close the commit window open since the last wave ended: the
     orchestrator alone runs it, so all of it is on the critical path. *)
  let close_window c now =
    Option.iter
      (fun t_end ->
        c.c_critical_ns <- c.c_critical_ns + max 0 (ns (now -. t_end)))
      c.c_wave_end;
    c.c_wave_end <- None

  let wave_begin c ~n =
    close_window c (Hft_obs.Clock.now ());
    c.c_waves <- c.c_waves + 1;
    c.c_tasks <- c.c_tasks + n;
    Array.fill c.c_wave_busy_ns 0 c.c_jobs 0

  (* The wave lasts as long as its busiest worker. *)
  let wave_end c =
    let busy = c.c_wave_busy_ns in
    c.c_busy_ns <- c.c_busy_ns + Array.fold_left ( + ) 0 busy;
    c.c_critical_ns <- c.c_critical_ns + Array.fold_left max 0 busy;
    c.c_wave_end <- Some (Hft_obs.Clock.now ())

  (* Worker-side hook, called from the pool's task loop. *)
  let task_run c ~wid run =
    let t0 = Hft_obs.Clock.now () in
    let r = run () in
    c.c_wave_busy_ns.(wid) <-
      c.c_wave_busy_ns.(wid) + max 0 (ns (Hft_obs.Clock.now () -. t0));
    r

  (* Engine-side hooks: the commit loop calls exactly one of
     [note_hit] / [note_miss] / [note_inline] per dispatched task, which
     is what makes hits + misses + inline = tasks a law rather than an
     approximation. *)
  let note_hit c = c.c_hits <- c.c_hits + 1
  let note_miss c = c.c_misses <- c.c_misses + 1
  let note_inline c = c.c_inline <- c.c_inline + 1

  let finish c =
    let now = Hft_obs.Clock.now () in
    close_window c now;
    { s_jobs = c.c_jobs; s_waves = c.c_waves; s_tasks = c.c_tasks;
      s_wall_ns = max 0 (ns (now -. c.c_t0));
      s_critical_ns = c.c_critical_ns; s_busy_ns = c.c_busy_ns;
      s_spec_hits = c.c_hits; s_spec_misses = c.c_misses;
      s_inline = c.c_inline }
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

  let parallel (type ws) t ~stats ~(init : unit -> ws) (k : ws section -> 'b)
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
      (* One counter per wave: each worker claims the next unclaimed
         index until they run out. *)
      let next = Atomic.make 0 in
      Stats.wave_begin stats ~n;
      let body wid =
        match
          Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Shard
            (fun () ->
              let ws = workspace wid in
              let rec claim () =
                let k = Atomic.fetch_and_add next 1 in
                if k < n then begin
                  results.(k) <-
                    Some (Stats.task_run stats ~wid (fun () -> f ws k));
                  claim ()
                end
              in
              claim ())
        with
        | Ok () -> ()
        | Error fail ->
          Mutex.lock fails_lock;
          fails := fail :: !fails;
          Mutex.unlock fails_lock
      in
      launch t body;
      Stats.wave_end stats;
      (results, List.rev !fails)
    in
    k { run }
end
