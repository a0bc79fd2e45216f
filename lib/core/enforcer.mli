(** The enforcer (§4.2): the trusted party outside the system.

    The enforcer obtains ledgers for auditing from the replicas that signed
    the receipts under dispute — punishing members whose replicas fail to
    produce data by the deadline — and independently re-verifies uPoMs
    before punishing the members operating the blamed replicas. It also
    punishes auditors that submit invalid uPoMs. *)

type response = {
  resp_ledger : Iaccf_ledger.Ledger.t;
  resp_checkpoint : Iaccf_kv.Checkpoint.t option;
}

type outcome =
  | No_misbehavior
  | Members_punished of { punished : string list; verdict : Audit.verdict }
  | Unresponsive_punished of { replicas : int list; punished : string list }
  | Auditor_punished of { reason : string }
  | Receipt_refused of { reason : string }
      (** the newest receipt does not verify under the governance chain:
          nobody is asked or punished *)

type t

val create :
  genesis:Iaccf_types.Genesis.t ->
  app:App.t ->
  pipeline:int ->
  checkpoint_interval:int ->
  t

val investigate :
  t ->
  receipts:Receipt.t list ->
  gov_receipts:Receipt.t list ->
  provider:(int -> response option) ->
  outcome
(** Full §4 flow: feed [gov_receipts] to an auditor's governance chain,
    punishing the members a fork in it blames (Lemma 7); verify the
    newest receipt under that chain, ask every replica that signed it for
    a ledger (via [provider]; [None] models missing the deadline), audit
    the first response with the same auditor, and punish. If no signer
    responds, their operating members under the configuration of the
    receipt's batch are punished instead. *)

val verify_upom :
  t ->
  verdict:Audit.verdict ->
  receipts:Receipt.t list ->
  gov_receipts:Receipt.t list ->
  response:response ->
  responder:int ->
  outcome
(** Re-check a uPoM submitted by an auditor: re-run the audit on the
    supplied evidence; punish members if it reproduces, otherwise punish
    the auditor (§4.2). *)

val punished_members : t -> string list
(** Accumulated punishments, sorted. *)

(** {1 Liveness monitoring (§2, future-work defence)}

    The paper's threat model does not blame replicas for liveness
    violations, but sketches the defence implemented here: clients forward
    requests to the enforcer, which starts a conservative deadline; if no
    valid receipt is presented in time, the current configuration's members
    are held responsible. *)

val watch :
  t ->
  sched:Iaccf_sim.Sched.t ->
  request:Iaccf_types.Request.t ->
  config:Iaccf_types.Config.t ->
  deadline_ms:float ->
  unit
(** Begin monitoring a forwarded request. *)

val notify_receipt : t -> Receipt.t -> unit
(** Present a receipt; clears the matching watch if the receipt's
    transaction is the watched request. *)

val liveness_violations : t -> Iaccf_crypto.Digest32.t list
(** Request hashes whose deadline expired without a receipt; their
    configurations' members have been punished. *)
