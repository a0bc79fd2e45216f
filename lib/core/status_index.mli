(** Transaction status and the read index: what a replica serves about
    ordered transactions, kept apart from ordering them.

    The stability rule: a locally committed batch is {e stable} once the
    commit horizon is [pipeline] (P) past it. Commit of [s+P] proves a
    quorum prepared [s+P]; any later view-change quorum intersects that
    prepare quorum in an honest replica, so the new-view rollback target
    [max 0 (s_lp - P)] can never reach back to [s]. Only stable sequence
    numbers get the terminal answers COMMITTED and INVALID, so for a fixed
    transaction ID the answer never moves between them, and never
    regresses from PENDING to UNKNOWN. *)

type t

val create : pipeline:int -> t

val record_writes :
  t -> seqno:int -> (string * Iaccf_kv.Store.write) list list -> unit
(** The write sets of an executed batch, one per transaction. Re-execution
    overwrites them. *)

val reached : t -> int -> unit
(** The replica has reached this sequence number; a rollback never makes
    it UNKNOWN again. *)

val commit :
  t -> seqno:int -> view:int -> index_writes:bool -> last_committed:int -> unit
(** A batch committed locally in [view] (ascending [seqno] order), with
    [last_committed] the new horizon. With [index_writes], the batch's
    recorded write sets become the keys' last writers. *)

val status : t -> view:int -> seqno:int -> Status.t
(** COMMITTED or INVALID for stable sequence numbers; PENDING for one the
    replica has reached or stabilised past; else UNKNOWN. *)

val stable_upto : t -> int
(** The highest stable sequence number. *)

val last_write : t -> string -> (int * int) option
(** [(seqno, tx_position)] of the committed transaction that last wrote a
    key, if indexed. *)

val write_set :
  t -> seqno:int -> tx_position:int -> (string * Iaccf_kv.Store.write) list option
