(** Transaction batches and their ledger representation.

    The primary orders requests into batches (Alg. 1); each executed request
    becomes a [<t, i, o>] entry whose digests form the per-batch Merkle tree
    [G] (Fig. 3). Special batches carry checkpoint transactions (§3.4) and
    the end/start-of-configuration markers of a reconfiguration (§5.1). *)

type kind =
  | Regular
  | Checkpoint of { cp_seqno : int; cp_digest : Iaccf_crypto.Digest32.t }
      (** records the digest of the checkpoint taken at [cp_seqno] *)
  | End_of_config of { phase : int; committed_root : Iaccf_crypto.Digest32.t }
      (** [phase] in [1 .. 2P]; [committed_root] is the Merkle root at the
          final vote, committing signers to the reconfiguration (§5.1) *)
  | Start_of_config of { phase : int }  (** [phase] in [1 .. P] *)

type tx_result = {
  output : string;  (** the reply returned to the client *)
  write_set_hash : Iaccf_crypto.Digest32.t;
}

type tx_entry = {
  request : Request.t;  (** t *)
  index : int;  (** i, the ledger index *)
  result : tx_result;  (** o *)
}

val tx_leaf : tx_entry -> Iaccf_crypto.Digest32.t
(** Leaf digest of a [<t, i, o>] entry in [G]. *)

val placed : tx_entry -> bool
(** The request may take the entry's index ({!Request.may_execute_at}). *)

val g_tree : tx_entry list -> Iaccf_merkle.Tree.t
(** The per-batch tree [G] over the entries' leaves, in execution order.
    A caller that needs both the root and receipt paths builds it once. *)

val g_root : tx_entry list -> Iaccf_crypto.Digest32.t
(** [Tree.root (g_tree entries)]. *)

val encode_kind : Iaccf_util.Codec.W.t -> kind -> unit
val decode_kind : Iaccf_util.Codec.R.t -> kind
val encode_tx_entry : Iaccf_util.Codec.W.t -> tx_entry -> unit
val decode_tx_entry : Iaccf_util.Codec.R.t -> tx_entry
val serialize_tx_entry : tx_entry -> string
val kind_equal : kind -> kind -> bool
val pp_kind : Format.formatter -> kind -> unit
