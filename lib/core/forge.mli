(** Attack harness: build ledgers and receipts offline with replica keys.

    Models the paper's adversary at any colluding quorum (§4): with a
    quorum or more of the signing keys in hand, the attacker can produce a
    fully well-formed ledger with arbitrary execution results, rewrite
    history, or issue contradictory receipts. Because forged histories are
    signed only by the colluders, every uPoM an audit derives from them
    blames a subset of the colluders — audit tests and the chaos
    subsystem's accountability oracle rely on exactly this to check blame
    precision (zero false blame). *)

module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32

type t

val create :
  genesis:Genesis.t ->
  sks:(int * Schnorr.secret_key) list ->
  app:App.t ->
  pipeline:int ->
  checkpoint_interval:int ->
  t
(** [sks] are the colluding replicas' keys; they must cover at least a
    quorum of the genesis configuration (a strict subset models a
    colluding quorum rather than whole-service collusion), and must
    include the view-0 primary. Operations that need a later view's
    primary to sign raise [Invalid_argument] if its key was not
    provided. *)

val add_batch :
  t ->
  ?execute_override:(Request.t -> int -> (string * D.t) option) ->
  Request.t list ->
  int
(** Execute and append one batch, fully signed; checkpoint batches are
    injected automatically on schedule. [execute_override] may replace the
    recorded result of chosen requests — the forged ledger stays
    well-formed, but replay will expose it. Returns the batch's seqno. *)

val add_special_batch : t -> Batch.kind -> int
(** Append a request-less batch of the given kind verbatim (e.g. a forged
    end-of-configuration batch). *)

val add_view_change : t -> unit
(** Forge a view change whose view-change messages deny that anything
    prepared: the colluders erase their history and continue in the next
    view (the rewrite behind Lemma 5's cross-view cases). Subsequent
    batches restart at sequence number 1 in the new view. *)

val ledger : t -> Iaccf_ledger.Ledger.t
val checkpoint_at : t -> int -> Iaccf_kv.Checkpoint.t option

val make_receipt : t -> seqno:int -> tx_position:int option -> Receipt.t
(** Receipt signed by a quorum of the colluding replicas. *)

val tamper_tx_output :
  Receipt.t -> output:string -> Receipt.t
(** Byte-tamper a receipt's recorded output without re-signing (for
    negative tests: such receipts must fail verification). *)
