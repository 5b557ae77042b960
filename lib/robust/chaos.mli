(** Deterministic chaos harness: a seeded fault injector threaded
    through the engine supervision sites.

    When configured, every {!check} at an enabled site draws from one
    splitmix64 stream and raises {!Injection} with probability [prob]
    once the site has been exercised [arm_after] times.  The draw order
    is the supervision-call order of the campaign, so a given seed
    reproduces the exact same injection points run after run — tests can
    kill a campaign at a chosen serialisation and assert the resumed run
    is bit-identical.  Disabled (the default), {!check} is a single ref
    read. *)

type site = Podem | Fsim | Collapse | Serialize | Shard

(** Raised by {!check} when the injector trips.  [seq] numbers the
    injections of the current configuration from 1. *)
exception Injection of { site : string; seq : int }

type config = {
  seed : int;
  prob : float;  (** per-check trip probability in [0, 1] *)
  sites : site list;  (** sites the injector is armed at *)
  arm_after : int;
      (** number of checks a site passes unharmed before the injector
          may trip there — lets tests place a failure mid-run *)
}

val all_sites : site list
val site_name : site -> string
val site_of_string : string -> site option

(** Install a configuration (resets the stream and all counters). *)
val configure : config -> unit

val enabled : unit -> bool

(** Raise {!Injection} if the injector trips at [site]; no-op while
    disabled or when [site] is not armed. *)
val check : site -> unit

(** Injections raised since the last {!configure}. *)
val injections : unit -> int

(** Read [HFT_CHAOS_SEED] (enables the injector when set),
    [HFT_CHAOS_PROB] (default 0.05, must parse to a float in [0, 1]),
    [HFT_CHAOS_SITES] (comma-separated site names, default all) and
    [HFT_CHAOS_ARM] (default 0, must be a non-negative integer).
    Stays disabled when no variable is set.  A malformed value — or a
    chaos knob set without [HFT_CHAOS_SEED] — raises
    {!Validation.Invalid} so the CLI reports the bad variable and
    exits 2 instead of silently running with a default. *)
val of_env : unit -> unit

(** Run [f] under [config], restoring the previous injector state
    afterwards (including on exception). *)
val with_config : config -> (unit -> 'a) -> 'a
