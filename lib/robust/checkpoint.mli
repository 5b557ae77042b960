(** Crash-only JSONL tapes, the one append-only record format of every
    resumable campaign: [hft-ledger/1] ({!Hft_obs.Ledger}, written by
    [Hft_core.Flow.test_campaign]) and [hft-fuzz/1] ([Hft_fuzz.State]). *)

type meta = (string * Hft_util.Json.t) list

(** A header line carrying the schema tag and [meta], then one record
    per line.  Every {!Tape.emit} runs a [Chaos.check Serialize] and
    flushes, so the chaos harness can kill a campaign at any
    serialisation boundary and an interrupted file is always a loadable
    prefix.  {!Tape.load} drops an unparsable {e final} line (the
    expected crash artifact, {!Hft_util.Json.parse_jsonl}) and reports
    damage anywhere else as corruption; rolling back an uncommitted
    trailing {e transaction} is the schema owner's job. *)
module Tape : sig
  type writer

  (** Truncate/create [path] and write the header (header writes are
      not chaos-checked — the injector targets record appends). *)
  val create : path:string -> schema:string -> meta:meta -> writer

  (** Open [path] for appending (resume) without touching it. *)
  val reopen : path:string -> writer

  (** Append one record: [Chaos.check Serialize], write, flush. *)
  val emit : writer -> Hft_util.Json.t -> unit

  (** Append without the chaos check — for maintenance rewrites
      (resume-time compaction) that replay already-committed records
      and must not consume injection draws. *)
  val emit_raw : writer -> Hft_util.Json.t -> unit

  val close : writer -> unit

  (** Parse header + records; [Error] on a schema mismatch, an
      unreadable file, or mid-file corruption. *)
  val load :
    path:string -> schema:string ->
    (meta * Hft_util.Json.t list, string) result
end
