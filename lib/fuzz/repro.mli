(** Self-contained reproducer files ("hft-repro/1").

    One JSON document per finding: the minimized netlist itself (not
    its generation recipe), the oracle check, seed and canary flag
    needed to re-run it, and provenance.  {!replay} needs nothing but
    the file, so committed reproducers keep working as the generator
    portfolio evolves. *)

type t = {
  p_fingerprint : string;  (** {!fingerprint} of the finding class *)
  p_check : string;  (** the {!Oracle.check_names} entry that fired *)
  p_detail : string;
  p_seed : int;  (** oracle seed to replay with *)
  p_canary : bool;  (** replay with the PODEM canary armed *)
  p_arm : string;  (** portfolio arm that generated the circuit *)
  p_trial : int;
  p_netlist : Hft_gate.Netlist.t;
  p_original_nodes : int;  (** node count before minimization *)
  p_minimize_steps : int;
}

val schema : string

(** Stable identity of a finding class: MD5 over (check, seed, detail)
    — deliberately netlist-free so pre- and post-minimization forms of
    the same bug dedup to one corpus entry. *)
val fingerprint : check:string -> seed:int -> detail:string -> string

val to_json : t -> Hft_util.Json.t
val of_json : Hft_util.Json.t -> (t, string) result

(** Corpus file name, derived from the fingerprint. *)
val filename : t -> string

(** Atomic write (tmp + rename) into [dir]; returns the path. *)
val save : dir:string -> t -> string

val load : string -> (t, string) result

(** Re-run the stored check on the stored netlist; the finding
    reproduces iff the result is non-empty.  Like every
    {!Oracle.run_check}, it works (and stays silent) regardless of the
    caller's observability state. *)
val replay : t -> Oracle.finding list
