(** [Hft_par]: a fixed-size OCaml 5 domain pool for the ATPG engines.

    The engines split a fault campaign into collapsed fault classes and
    evaluate them speculatively on the pool — each worker drains its own
    deque of class indexes front-first (lowest class index first, i.e.
    most commit-urgent first) and steals from the back of other workers'
    deques when it runs dry.  Results come back as an [option] per task:
    [None] means that task's shard died (or chaos killed it) and the
    caller must fall back to computing the task inline.  Determinism is
    the {e caller's} contract — the pool only promises that every task
    ran at most once and that all side effects of worker bodies
    happened-before [run] returned.

    The calling thread participates as worker 0, so [jobs = n] uses
    exactly [n] domains ([n - 1] spawned).  Pools persist per jobs
    count and are reused across campaigns — domain spawn costs are paid
    once per process, not once per [run]. *)

val clamp_jobs : int -> int
(** Clamp a user-supplied jobs count to [1 .. 64]. *)

type 'ws section = {
  run :
    'a.
    n:int ->
    f:('ws -> int -> 'a) ->
    'a option array * Hft_robust.Failure.t list;
}

(** Scheduler telemetry: one flat summary per campaign.

    A {!Stats.collector} rides along a {!Pool.parallel} section and
    accumulates lock-free: each worker writes only its own busy-time
    and steal slots, the orchestrating thread writes everything else,
    and the slots are summed after the wave barrier's happens-before
    edge.  Collection is purely observational: it reads clocks and
    counts, and changes no task order, result or committed
    telemetry.

    Accounting laws that hold by construction:
    {ul
    {- [s_spec_hits + s_spec_misses + s_inline = s_tasks] — the engine
       commit loop buckets every dispatched task exactly once;}
    {- [s_busy_ns <= s_jobs * s_wall_ns] and
       [s_critical_ns <= s_wall_ns], up to clock jitter — busy time is
       spent inside waves, and the critical path is each wave's
       busiest worker plus the commit windows between waves.}} *)
module Stats : sig
  type t = {
    s_jobs : int;
    s_waves : int;
    s_tasks : int;  (** tasks dispatched across all waves *)
    s_wall_ns : int;  (** collector lifetime *)
    s_critical_ns : int;  (** Σ per-wave max busy + commit windows *)
    s_busy_ns : int;  (** Σ time on speculative tasks, all workers *)
    s_steals : int;  (** tasks taken from another worker's deque *)
    s_spec_hits : int;  (** speculations replayed at commit *)
    s_spec_misses : int;  (** speculations discarded at commit *)
    s_inline : int;  (** tasks recomputed inline after a shard died *)
  }

  (** Field accessors, in the function form the layer benchmark reads. *)
  val busy_ns : t -> int

  val steals : t -> int
  val spec_misses : t -> int
  val inline : t -> int

  (** Σ busy / (jobs × wall) — 1.0 means every domain spent the whole
      campaign on useful work. *)
  val utilization : t -> float

  val to_json : t -> Hft_util.Json.t

  (** The summary of a sequentially-run campaign: one fully-busy
      worker, no speculation — so every consumer sees a utilization
      field regardless of engine path. *)
  val sequential : wall_ns:int -> t

  type collector

  (** Start collecting; pass the result to {!Pool.parallel}. *)
  val collector : jobs:int -> collector

  (** Engine-side commit-loop hooks (orchestrator thread only).  The
      loop must call exactly one of {!note_hit} / {!note_miss} /
      {!note_inline} per dispatched task. *)
  val note_hit : collector -> unit

  val note_miss : collector -> unit
  val note_inline : collector -> unit

  (** Seal the summary, closing the final commit window. *)
  val finish : collector -> t
end
(** One parallel section with per-worker workspaces of type ['ws].
    [run ~n ~f] evaluates [f ws k] for [k = 0 .. n-1] across the pool
    and returns the results plus the failures of any shard whose body
    was killed ({!Hft_robust.Supervisor.protect} wraps each worker,
    site {!Hft_robust.Chaos.site} [Shard]).  [results.(k) = None] iff
    task [k] never completed — its shard died first; re-run it inline.
    Workspaces are created lazily, one per worker, and persist across
    successive [run] calls of the same section. *)

module Pool : sig
  type t

  val get : jobs:int -> t
  (** The process-wide pool with [clamp_jobs jobs] workers, spawning it
      on first use.  Pools are cached per jobs count and shut down at
      process exit. *)

  val jobs : t -> int

  val parallel :
    t -> stats:Stats.collector -> init:(unit -> 'ws) ->
    ('ws section -> 'b) -> 'b
  (** [parallel t ~stats ~init k] opens a section whose per-worker
      workspaces are built by [init] (on the worker that uses them, at
      most once per worker) and runs [k] with it.  [k] runs on the
      calling thread; only [section.run] bodies execute on the pool.
      Each [run] is one wave measured into [stats] (busy time, steals,
      the wave's critical path and the commit window after it) at no
      change to results. *)
end
