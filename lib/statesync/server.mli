(** A replica's checkpoints, from taking one to serving it (§3.4).

    The replica takes a checkpoint every C batches and keeps the recent
    ones for the schedule, for rollback and for serving. A checkpoint
    digest is trustworthy once the checkpoint batch recording it has
    committed: a quorum signed over a ledger containing it. A newly sealed
    checkpoint at a multiple of the snapshot interval is written as a
    snapshot file; the newest two are kept. Only sealed checkpoints are
    offered, and only while the sealing batch sits inside the prefix being
    served. The newest snapshot file a trusted digest vouches for is where
    a cold start resumes and what compaction prunes behind. *)

type t

val create :
  metrics:Metrics.t -> obs:Iaccf_obs.Obs.t -> node:int -> interval:int ->
  snapshot_interval:int -> dir:string option -> t
(** Checkpoints every [interval] batches; snapshot files in [dir] every
    [snapshot_interval] sequence numbers ([0], or no [dir]: none). *)

val take : t -> Iaccf_kv.Checkpoint.t -> unit
(** Keep a checkpoint just taken; it becomes the latest. Its digest is
    computed on the background worker ({!Iaccf_util.Worker}): {!digest},
    {!seal}'s snapshot write and serving wait for it. Its compressions
    count toward the caller's {!Iaccf_crypto.Sha256.blocks} even if the
    checkpoint is dropped unread. *)

val adopt : t -> Iaccf_kv.Checkpoint.t -> Iaccf_crypto.Digest32.t -> unit
(** Keep an installed checkpoint with its verified digest. *)

val latest : t -> int
val checkpoint : t -> int -> Iaccf_kv.Checkpoint.t option
val digest : t -> int -> Iaccf_crypto.Digest32.t option

val retain : t -> unit
(** Drop the checkpoints more than 3·C below the latest; 0 stays. *)

val rollback : t -> target:int -> unit
(** Drop the checkpoints above [target], and recompute the latest. *)

val seal :
  t -> cp_seqno:int -> cp_digest:Iaccf_crypto.Digest32.t -> seal_seqno:int -> persist:bool ->
  unit
(** The committed checkpoint batch at [seal_seqno] seals [cp_digest]. With
    [persist], a newly sealed digest at a multiple of the snapshot
    interval writes the kept checkpoint with that digest to a file. *)

val restore_point :
  t ->
  verify_pp:(Iaccf_types.Message.pre_prepare -> bool) ->
  Iaccf_ledger.Entry.t list ->
  (Iaccf_kv.Checkpoint.t * Iaccf_crypto.Digest32.t) option
(** The newest snapshot whose digest a properly signed checkpoint batch
    among the entries seals. *)

val prune_point : t -> batch_end:(int -> int option) -> int option
(** [batch_end cp_seqno] of the newest snapshot whose digest is sealed,
    among those whose batch is in the ledger. *)

(** What the server reads of its replica's ledger, at the time of one
    request. *)
type ledger = {
  served : int;  (** safe ledger length: batches up to the last prepared *)
  entry : int -> Iaccf_ledger.Entry.t;
  batch_end : int -> int option;
      (** ledger length right after a batch, while the batch is in it *)
}

type reply =
  | Offer of { cp_seqno : int; total : int; bytes : int }
  | Extent of Iaccf_ledger.Entry.t list
      (** entries from the requested length until the byte budget is spent
          (at least one) *)

val answer :
  t -> ledger -> Session.offer -> from_len:int -> pruned_upto:int -> reply option
(** The answer to a catch-up request for the ledger from [from_len]:
    an offer of the newest servable sealed snapshot if the policy allows
    ({!Session.should_offer}), otherwise a suffix extent. [None] when
    there is nothing to send. *)

val chunk : t -> cp_seqno:int -> index:int -> (int * string) option
(** [(total, data)] of one chunk of a sealed snapshot. *)
