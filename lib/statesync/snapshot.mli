(** Durable checkpoint snapshots (§3.4).

    A snapshot is one CRC-framed file [snapshot-<cp_seqno>.iaccf] holding
    the serialized {!Iaccf_kv.Checkpoint} taken at a stable checkpoint,
    written next to the segment store. The file carries no authority of its
    own: installers bind it to the [cp_digest] sealed in the committed
    checkpoint batch before trusting it, so a corrupt or substituted file
    is rejected, never installed. *)

module Checkpoint = Iaccf_kv.Checkpoint

val path : dir:string -> int -> string
(** [path ~dir cp_seqno] is the snapshot file name for that checkpoint. *)

val write : dir:string -> Checkpoint.t -> int
(** Persist atomically (tmp + fsync + rename); returns the file size. *)

val load_serialized : dir:string -> int -> string option
(** The CRC-checked serialized checkpoint bytes, or [None] if the file is
    missing or damaged. This is what the chunked transfer serves. *)

val load : dir:string -> int -> Checkpoint.t option
(** Decode a snapshot; [None] if missing, damaged, or the embedded seqno
    does not match the file name. *)

val list : dir:string -> int list
(** Checkpoint seqnos with a snapshot file present, newest first. *)

val retain : dir:string -> keep:int -> unit
(** Delete all but the newest [keep] snapshot files. *)

val sealing_batch :
  cp_seqno:int ->
  Iaccf_ledger.Entry.t list ->
  (Iaccf_types.Message.pre_prepare * Iaccf_crypto.Digest32.t) option
(** The first checkpoint batch among the entries that seals [cp_seqno],
    with the digest it seals. Its signature is not checked. *)

val newest_sealed :
  dir:string ->
  verify_pp:(Iaccf_types.Message.pre_prepare -> bool) ->
  Iaccf_ledger.Entry.t list ->
  (Checkpoint.t * Iaccf_crypto.Digest32.t) option
(** The newest snapshot whose digest a properly signed checkpoint batch
    among [entries] seals, with that digest: where a cold start may resume
    without replaying the prefix. *)
