(** Feature toggles for the Table 3 breakdown and the baselines of §6.

    The default is the full IA-CCF stack. Each flag removes (or, for
    [peerreview], adds) work so the benches can measure the cost of each
    design feature by difference. Disabling features voids accountability;
    the flags exist only for measurement. *)

type t = {
  gen_receipts : bool;  (** (b) off: IA-CCF-NoReceipt *)
  enable_checkpoints : bool;  (** (c) *)
  verify_client_sigs : bool;  (** (e) *)
  macs_only : bool;  (** (f): HMAC replica authenticators instead of signatures *)
  keep_ledger : bool;  (** (g) *)
  peerreview : bool;
      (** IA-CCF-PeerReview: sign every message, sign each per-transaction
          reply, and send signed acknowledgements for received messages *)
  sign_commits : bool;
      (** ablation of the nonce-commitment scheme (§3.1): sign commit
          messages instead of revealing nonces — the naive design the paper
          rejects, costing one extra signature per replica per batch *)
}

val full : t
val no_receipt : t
val peer_review : t

val signed_commits : t
(** The naive two-signature design (ablation). *)
