(** The serving side of catch-up: which checkpoints are sealed, the
    snapshot bytes behind them, and the answer to one catch-up request.

    A checkpoint digest is trustworthy once the checkpoint batch recording
    it has committed: a quorum signed over a ledger containing it (§3.4).
    Only sealed checkpoints are offered, and only while the sealing batch
    sits inside the prefix being served. *)

type t

val create : metrics:Metrics.t -> t

val seal : t -> cp_seqno:int -> cp_digest:Iaccf_crypto.Digest32.t -> seal_seqno:int -> bool
(** The committed checkpoint batch at [seal_seqno] seals [cp_digest].
    [true] when that digest was not sealed before. *)

val sealed : t -> int -> Iaccf_crypto.Digest32.t option

(** What the server reads of its replica, at the time of one request. *)
type ledger = {
  served : int;  (** safe ledger length: batches up to the last prepared *)
  entry : int -> Iaccf_ledger.Entry.t;
  batch_end : int -> int option;
      (** ledger length right after a batch, while the batch is in it *)
  retained : int -> (Iaccf_kv.Checkpoint.t * Iaccf_crypto.Digest32.t) option;
      (** an in-memory checkpoint and its digest *)
  dir : string option;  (** where durable snapshots live *)
}

type reply =
  | Offer of { cp_seqno : int; total : int; bytes : int }
  | Extent of Iaccf_ledger.Entry.t list
      (** entries from the requested length until the byte budget is spent
          (at least one) *)

val answer :
  t -> ledger -> Session.offer -> from_len:int -> pruned_upto:int ->
  interval:int -> reply option
(** The answer to a catch-up request for the ledger from [from_len]:
    an offer of the newest servable sealed snapshot if the policy allows
    ({!Session.should_offer}), otherwise a suffix extent. [None] when
    there is nothing to send. *)

val chunk : t -> ledger -> cp_seqno:int -> index:int -> (int * string) option
(** [(total, data)] of one chunk of a sealed snapshot. *)
