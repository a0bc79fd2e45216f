(** Auditing (§4.1, Alg. 4; §5.3, Appx. B).

    Given a collection of receipts and a ledger obtained through the
    enforcer, the auditor (anyone — the ledger is universally verifiable):

    + validates the receipts and their supporting governance chain,
      detecting governance forks (Lemma 7) and contradictory "tied"
      receipts;
    + checks the ledger is {e well-formed}: the structural shape of Fig. 3,
      evidence quorums whose signatures verify and whose nonces open their
      commitments, per-batch Merkle roots that match the recorded
      transactions, and view-change/new-view entries that justify every
      view;
    + checks each receipt appears in the ledger, assigning blame by the
      three view cases of Lemma 5 when it does not; and
    + replays transactions from a checkpoint, comparing outputs and
      write-set hashes, blaming every signer of a misexecuted batch.

    Any failure yields a universal proof-of-misbehavior naming at least
    [f+1] replicas (or the responding replica, for a malformed response). *)

module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Ledger = Iaccf_ledger.Ledger
module Checkpoint = Iaccf_kv.Checkpoint
module Bitmap = Iaccf_util.Bitmap

type upom =
  | Invalid_receipt of { ir_receipt : Receipt.t; ir_reason : string }
      (** a receipt that fails Alg. 3 verification; no replica blamed *)
  | Tied_receipts of { tr_first : Receipt.t; tr_second : Receipt.t }
      (** contradictory receipts for the same slot — signed by both quorums *)
  | Governance_fork of { gf_first : Receipt.t; gf_second : Receipt.t }
      (** non-equivalent P-th end-of-config receipts (Lemma 7) *)
  | Malformed_ledger of { ml_responder : int; ml_reason : string; ml_index : int }
      (** structural violation at a ledger index; blames the responder *)
  | Receipt_not_in_ledger of {
      rn_receipt : Receipt.t;
      rn_case : [ `Same_view | `Ledger_view_higher | `Receipt_view_higher ];
      rn_reason : string;
    }
  | Wrong_execution of { we_index : int; we_seqno : int; we_reason : string }
      (** replay diverged from the recorded result at a ledger index *)

type verdict = {
  v_upom : upom;
  v_blamed_replicas : Bitmap.t;
  v_blamed_members : string list;  (** operators of the blamed replicas *)
}

type t

val create :
  genesis:Genesis.t ->
  app:App.t ->
  pipeline:int ->
  checkpoint_interval:int ->
  t

val add_gov_receipts : t -> Receipt.t list -> (unit, verdict) result
(** Feed the supporting governance chain; a fork yields a verdict. *)

val verify_receipt : t -> Receipt.t -> (unit, string) result
(** Alg. 3 for one receipt, under the configuration the governance chain
    fed so far gives its batch. *)

val members_of : t -> seqno:int -> Bitmap.t -> string list
(** The operators of these replicas under the configuration of batch
    [seqno], sorted. *)

val audit :
  t ->
  receipts:Receipt.t list ->
  ledger:Ledger.t ->
  ?checkpoint:Checkpoint.t ->
  responder:int ->
  unit ->
  (unit, verdict) result
(** Run the full audit of the receipts against a ledger provided by
    [responder]. [Ok ()] means no misbehavior was detected. When a
    [checkpoint] is supplied, replay starts at its sequence number instead
    of genesis (the checkpoint digest is verified against the ledger).

    The ledger's pre-prepare, prepare and client signatures are checked
    on helper domains while the structural scan queues them and while
    the caller checks the receipts against the ledger and replays it;
    the caller joins in last. The domains number as many as the ledger's
    length and the host's cores warrant. The scan interns each job's key
    as it queues the job and builds a key's comb at the first job where
    it pays ({!Iaccf_crypto.Sigcheck}), so the work does not depend on
    the width. The verdict is the one a scan checking each signature in
    place, then replaying, would give. *)

val audit_at_width :
  width:int ->
  t ->
  receipts:Receipt.t list ->
  ledger:Ledger.t ->
  ?checkpoint:Checkpoint.t ->
  responder:int ->
  unit ->
  (unit, verdict) result
(** {!audit} with the signature checks on exactly [width] domains, for
    tests that compare widths. *)

val pp_upom : Format.formatter -> upom -> unit
val pp_verdict : Format.formatter -> verdict -> unit
