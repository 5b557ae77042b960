(** Crash-only JSONL tapes, the one append-only record format of every
    resumable campaign: [hft-ledger/1] ({!Hft_obs.Ledger}, written by
    [Hft_core.Flow.test_campaign]) and [hft-fuzz/1] ([Hft_fuzz.State]). *)

type meta = (string * Hft_util.Json.t) list

(** A header line carrying the schema tag and [meta] (the run's
    fingerprint), then one record per line.  Every {!Tape.emit} runs a
    [Chaos.check Serialize] and flushes, so the chaos harness can kill
    a campaign at any serialisation boundary and an interrupted file is
    always a loadable prefix.  A schema names its commit records; its
    loader validates the whole tape, then rolls back the records after
    the last commit ({!Hft_util.Json.committed}). *)
module Tape : sig
  type writer

  (** Truncate/create [path] and write the header (header writes are
      not chaos-checked — the injector targets record appends). *)
  val create : path:string -> schema:string -> meta:meta -> writer

  (** Append one record: [Chaos.check Serialize], write, flush. *)
  val emit : writer -> Hft_util.Json.t -> unit

  val close : writer -> unit

  (** Parse header + records; [Error] on a schema mismatch, an
      unreadable file, or mid-file corruption. *)
  val load :
    path:string -> schema:string ->
    (meta * Hft_util.Json.t list, string) result

  (** [resume ~site ~hint ~path ~schema ~meta (header, records) restore]
      continues the tape at [path], read back as its header's meta and
      its validated, committed records.  Every key of the run's [meta]
      must have the same value in [header] (else {!Validation.Invalid}
      at [site] with [hint], naming the key); then [restore ()] runs
      the caller's last checks.  Only then is the tape compacted: the
      header and [records], as written, go to the sibling [path ^
      ".compact"], renamed over [path], so the old file is never
      rewritten in place.  Returns [restore ()]'s result and a writer
      appending after the last record. *)
  val resume :
    site:string -> hint:string -> path:string -> schema:string ->
    meta:meta -> meta * Hft_util.Json.t list -> (unit -> 'a) ->
    'a * writer
end
