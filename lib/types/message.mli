(** L-PBFT protocol messages (Alg. 1 and Alg. 2).

    Signed messages carry their signature alongside a canonical signing
    payload so that any party — client, replica, auditor, enforcer — can
    re-derive and check exactly the bytes that were signed. The nonce
    commitment scheme means only pre-prepare, prepare, and view-change
    messages are ever signed; commits reveal nonces instead (§3.1). *)

module D = Iaccf_crypto.Digest32

type pre_prepare = {
  view : int;
  seqno : int;
  m_root : D.t;  (** root of the ledger tree M before this pre-prepare *)
  g_root : D.t;  (** root of the per-batch tree G *)
  nonce_com : D.t;  (** H(K[v,s]), the primary's nonce commitment *)
  ev_bitmap : Iaccf_util.Bitmap.t;  (** E_{s-P}: evidence contributors *)
  gov_index : int;  (** i_g, ledger index of the last governance tx *)
  cp_digest : D.t;  (** d_C, digest of the last committed checkpoint *)
  kind : Batch.kind;
  primary : int;
  signature : string;
}

type prepare = {
  p_view : int;
  p_seqno : int;
  p_replica : int;
  p_nonce_com : D.t;  (** H(K[v,s]) for this replica *)
  p_pp_hash : D.t;  (** H(pp) *)
  p_signature : string;
}

(** Unsigned: the revealed nonce is the commitment's proof (Lemma 3). *)
type commit = { c_view : int; c_seqno : int; c_replica : int; c_nonce : string }

type reply = {
  r_view : int;
  r_seqno : int;
  r_replica : int;
  r_signature : string;  (** the replica's pre-prepare or prepare signature *)
  r_nonce : string;  (** revealed K[v,s] *)
}

(** Sent by the designated replica only; carries everything the client needs
    to reconstruct the pre-prepare and locate its transaction in G. *)
type replyx = {
  x_pp : pre_prepare;
  x_tx : Batch.tx_entry;
  x_leaf_index : int;
  x_batch_size : int;
  x_path : D.t list;  (** S, sibling digests in G *)
}

type view_change = {
  vc_view : int;  (** the view being moved to *)
  vc_replica : int;
  vc_last_prepared : pre_prepare list;  (** PP: last P locally-prepared pps *)
  vc_signature : string;
}

type new_view = {
  nv_view : int;
  nv_m_root : D.t;  (** ledger root after processing the view changes *)
  nv_vc_bitmap : Iaccf_util.Bitmap.t;  (** E_vc *)
  nv_vc_hash : D.t;  (** h_vc, hash of the view-change set ledger entry *)
  nv_primary : int;
  nv_signature : string;
}

(** {1 Signing payloads and hashes} *)

val pre_prepare_payload :
  view:int -> seqno:int -> m_root:D.t -> g_root:D.t -> nonce_com:D.t ->
  ev_bitmap:Iaccf_util.Bitmap.t -> gov_index:int -> cp_digest:D.t ->
  kind:Batch.kind -> primary:int -> D.t

val pp_hash : pre_prepare -> D.t
(** H(pp): digest of the signing payload (signature excluded). *)

val prepare_payload :
  view:int -> seqno:int -> replica:int -> nonce_com:D.t -> pp_hash:D.t -> D.t

val view_change_payload :
  view:int -> replica:int -> last_prepared:pre_prepare list -> D.t

val new_view_payload :
  view:int -> m_root:D.t -> vc_bitmap:Iaccf_util.Bitmap.t -> vc_hash:D.t ->
  primary:int -> D.t

(** {1 Signature checks}

    Each derives the signing payload and asks [check] whether [replica]
    signed it. Every caller passes its check: the replica its [Auth]
    path, the auditor its job list, receipts, clients and readers
    {!sigcheck} over their key table. *)

type check = replica:int -> D.t -> signature:string -> bool

val sigcheck : Iaccf_crypto.Sigcheck.t -> Config.t -> check
(** [sigcheck sigs config]: {!Iaccf_crypto.Sigcheck.verify} in [sigs]
    under the key [config] lists for [replica]; false for a replica
    [config] does not list. *)

val verify_pre_prepare : check:check -> ?pph:D.t -> Config.t -> pre_prepare -> bool
(** Signed by the primary of [view mod N]; so is a new view. A caller
    that already holds [pp_hash pp] passes it as [pph], and it is not
    hashed again. *)

val verify_prepare : check:check -> prepare -> bool
val verify_view_change : check:check -> view_change -> bool
val verify_new_view : check:check -> Config.t -> new_view -> bool

(** {1 Codecs} *)

val encode_pre_prepare : Iaccf_util.Codec.W.t -> pre_prepare -> unit
val decode_pre_prepare : Iaccf_util.Codec.R.t -> pre_prepare
val encode_prepare : Iaccf_util.Codec.W.t -> prepare -> unit
val decode_prepare : Iaccf_util.Codec.R.t -> prepare
val encode_view_change : Iaccf_util.Codec.W.t -> view_change -> unit
val decode_view_change : Iaccf_util.Codec.R.t -> view_change
val encode_new_view : Iaccf_util.Codec.W.t -> new_view -> unit
val decode_new_view : Iaccf_util.Codec.R.t -> new_view
val encode_commit : Iaccf_util.Codec.W.t -> commit -> unit
val decode_commit : Iaccf_util.Codec.R.t -> commit
val encode_reply : Iaccf_util.Codec.W.t -> reply -> unit
val decode_reply : Iaccf_util.Codec.R.t -> reply
val encode_replyx : Iaccf_util.Codec.W.t -> replyx -> unit
val decode_replyx : Iaccf_util.Codec.R.t -> replyx
val serialize_pre_prepare : pre_prepare -> string
val pre_prepare_equal : pre_prepare -> pre_prepare -> bool
val pp_pre_prepare : Format.formatter -> pre_prepare -> unit
