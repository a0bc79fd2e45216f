(** The view-change rule (Alg. 2, Appx. B.1) for the replica (new primary,
    backup, ledger ingestion), the auditor and the forge; signature checks
    are the caller's. A set of view changes justifies a view when all are
    for it, the senders are strictly ascending (a repeat is not a second
    vote), they are at least a quorum and every signature verifies. A new
    view names a set when it is for the set's view, carries the digest of
    the set's ledger entry, and its bitmap lists exactly the set's senders. *)

module Message = Iaccf_types.Message

val set_fault :
  quorum:int -> verify:(Message.view_change -> bool) -> Message.view_change list ->
  string option
(** Why the set justifies no view. Signatures come last, and all are
    checked even after one fails. *)

val names_fault : Message.new_view -> Message.view_change list -> string option
(** Why the new view does not name the set. *)

val new_view_fault :
  quorum:int ->
  verify:(Message.view_change -> bool) ->
  verify_nv:(Message.new_view -> bool) ->
  Message.new_view ->
  Message.view_change list ->
  string option
(** Why a new view and its set install nothing: {!names_fault}, then the
    set's shape, the new view's signature, the set's signatures. *)

val digest : Message.view_change list -> Iaccf_crypto.Digest32.t
(** h_vc, the digest of the set's ledger entry. *)

val senders : Message.view_change list -> Iaccf_util.Bitmap.t

val prepared_at : Message.view_change list -> int -> Message.pre_prepare option
(** The pre-prepare the set reports prepared at a seqno, highest view first. *)

val last_prepared : Message.view_change list -> int
(** s_lp, the highest seqno the set reports prepared (0 for none). *)

val resume : pipeline:int -> Message.view_change list -> int
(** The last batch the new view keeps, max 0 (s_lp − P); it proposes from
    the next seqno. *)
