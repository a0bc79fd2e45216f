(** Transaction receipts (§3.3, Alg. 3).

    A receipt is a statement signed by [N-f] replicas that request [t]
    executed at ledger index [i] with result [o]: the signed pre-prepare,
    [N-f-1] prepare signatures with the nonces that open their commitments,
    and a Merkle path from the [<t,i,o>] leaf to the per-batch root bound
    inside the pre-prepare. Receipts for request-less special batches (the
    P-th end-of-configuration batch of the governance sub-ledger, §5.2)
    carry no transaction subject. *)

module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module D = Iaccf_crypto.Digest32

type subject =
  | Tx_subject of {
      tx : Batch.tx_entry;
      leaf_index : int;
      batch_size : int;
      path : D.t list;  (** S *)
    }
  | Batch_subject  (** the receipt vouches for the (empty) batch itself *)

type t = {
  pp : Message.pre_prepare;  (** carries sigma_p, M-bar, H(k_p), E_{s-P}, i_g, d_C *)
  prep_bitmap : Iaccf_util.Bitmap.t;  (** E_s: backups contributing below *)
  prepare_sigs : string list;  (** Sigma_s, ascending replica id *)
  nonces : string list;  (** K_s, same order: opens each prepare's commitment *)
  subject : subject;
}

val make : Message.pre_prepare -> (int * string * string) list -> subject -> t
(** The one constructor: [make pp backups subject] with [backups] the
    chosen [(replica, prepare signature, nonce)] triples, in any order;
    the receipt lists them by ascending replica id. *)

val g_path : ?g_tree:Iaccf_merkle.Tree.t -> Batch.tx_entry list -> int -> D.t list
(** [g_path txs i]: the Merkle path from leaf [i] to the batch's [g_root],
    read from [g_tree] (which must be [Batch.g_tree txs]) when given.
    Otherwise, partially applied to a batch, it builds the batch's tree
    once, on the first path asked for. *)

val tx_subject : Batch.tx_entry list -> int -> subject
(** The subject for position [i] (which must exist) of a batch, with its
    {!g_path}; partial application shares the tree the same way. *)

val replyxs :
  ?g_tree:Iaccf_merkle.Tree.t ->
  Message.pre_prepare ->
  Batch.tx_entry list ->
  (Batch.tx_entry -> bool) ->
  Message.replyx list
(** [replyxs pp txs pick]: the receipt material (§3.3) a replica sends
    for each transaction of the batch that [pick] selects, in batch
    order. The paths come from [g_tree] when given (it must be
    [Batch.g_tree txs]); otherwise the batch's tree is built once. *)

val of_replyx : Message.replyx -> (int * string * string) list -> t
(** The client's side: a transaction receipt from a replyx and the chosen
    backups, as for {!make}. *)

val seqno : t -> int
val view : t -> int

val index : t -> int option
(** Ledger index [i] for transaction receipts. *)

val signers : t -> Iaccf_util.Bitmap.t
(** Primary plus prepare signers: the replicas this receipt binds. *)

val verify :
  ?checker:Iaccf_crypto.Sigcheck.t ->
  config:Iaccf_types.Config.t ->
  service:D.t ->
  t ->
  (unit, string) result
(** Alg. 3: reconstruct the pre-prepare and prepare messages, check the
    primary's identity and signature, each prepare signature under the
    reconstructed payload (nonce commitments recomputed from the revealed
    nonces, each of which {!Iaccf_crypto.Nonce.of_revealed} must accept),
    quorum size, the Merkle path to [g_root], and — for transaction
    subjects — the client signature and service binding of the request.
    Every signature is checked through [checker], a key table shared
    across calls ({!Govchain} holds one); without it, through a fresh
    table for this call, which uses each key at most once and so builds
    no comb. *)

val encode : Iaccf_util.Codec.W.t -> t -> unit
val decode : Iaccf_util.Codec.R.t -> t
val serialize : t -> string
val deserialize : string -> t
val size_bytes : t -> int
val equal : t -> t -> bool
val pp_receipt : Format.formatter -> t -> unit
