(** Durable checkpoint snapshots (§3.4).

    A snapshot is one CRC-framed file [snapshot-<cp_seqno>.iaccf] holding
    the serialized {!Iaccf_kv.Checkpoint} taken at a sealed checkpoint,
    written next to the segment store. The file carries no authority of its
    own: it is read only through {!load}, against a digest the caller
    trusts (one sealed in a committed checkpoint batch), so a corrupt or
    substituted file is rejected, never installed or served. *)

module Checkpoint = Iaccf_kv.Checkpoint
module D = Iaccf_crypto.Digest32

val path : dir:string -> int -> string
(** [path ~dir cp_seqno] is the snapshot file name for that checkpoint. *)

val write : dir:string -> Checkpoint.t -> int
(** Persist atomically (tmp + fsync + rename); returns the file size. *)

val load : dir:string -> int -> digest:D.t -> (Checkpoint.t * string) option
(** [load ~dir cp_seqno ~digest] is the checkpoint and its serialized
    bytes (what the chunked transfer serves), or [None] if the file is
    missing or damaged, holds another seqno than its name, or does not
    reproduce the trusted [digest]. *)

val list : dir:string -> int list
(** Checkpoint seqnos with a snapshot file present, newest first. *)

val retain : dir:string -> keep:int -> unit
(** Delete all but the newest [keep] snapshot files. *)

val sealing_batch :
  cp_seqno:int -> Iaccf_ledger.Entry.t list -> (Iaccf_types.Message.pre_prepare * D.t) option
(** The first checkpoint batch among the entries that seals [cp_seqno],
    with the digest it seals. Its signature is not checked. *)

val newest : dir:string -> trusted:(int -> D.t option) -> (Checkpoint.t * D.t) option
(** The newest snapshot that loads against the digest [trusted] vouches
    for at its seqno, with that digest. [trusted] is asked only for the
    seqnos of files present, newest first. *)
