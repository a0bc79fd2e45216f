(** Ledger entries (Fig. 3).

    A committed batch contributes, in order: the commitment evidence for the
    batch [P] positions earlier (prepare signatures, then revealed nonces),
    the signed pre-prepare, and one transaction entry per executed request.
    View changes contribute the accepted view-change set and the new-view
    message. All entries except transaction entries are leaves of the ledger
    Merkle tree [M]; transactions are bound through the per-batch root
    [g_root] inside their pre-prepare. *)

module Message = Iaccf_types.Message

type t =
  | Genesis of Iaccf_types.Genesis.t
  | Tx of Iaccf_types.Batch.tx_entry
  | Pre_prepare of Message.pre_prepare
  | Prepare_evidence of {
      pe_view : int;
      pe_seqno : int;
      pe_prepares : Message.prepare list;  (** P_{s-P}: N-f-1 prepares *)
    }
  | Nonce_evidence of {
      ne_view : int;
      ne_seqno : int;
      ne_nonces : (int * string) list;  (** K_{s-P}: N-f (replica, nonce) *)
    }
  | View_change_set of Message.view_change list
  | New_view of Message.new_view

val in_merkle_tree : t -> bool
(** Whether the entry is a leaf of M. *)

val encode : Iaccf_util.Codec.W.t -> t -> unit
val decode : Iaccf_util.Codec.R.t -> t
val serialize : t -> string
val deserialize : string -> t

val leaf_digest : t -> Iaccf_crypto.Digest32.t
(** Digest of the serialized entry; the M-leaf for M-bound entries. *)

val leaf_of_serialized : string -> Iaccf_crypto.Digest32.t
(** {!leaf_digest} from the entry's {!serialize}d bytes, for a caller that
    already holds them. *)

val size_bytes : t -> int
(** Serialized size; reported in the Table 1 bench. *)

val pp : Format.formatter -> t -> unit

(** A ledger extent grouped by batch. *)
type item =
  | Batch of {
      evidence : t list;  (** the evidence entries just before [pp] *)
      pp : Message.pre_prepare;
      txs : Iaccf_types.Batch.tx_entry list;
    }
  | Protocol of t  (** a view-change set or a new-view *)
  | Malformed of string
      (** a transaction outside a batch, or a genesis entry; always last *)

val batches : t list -> item list
(** Group an extent that does not start at genesis, in ledger order.
    Evidence attaches to the next pre-prepare; evidence with no
    pre-prepare after it is left out. A genesis entry also drops the batch
    it interrupts. *)
