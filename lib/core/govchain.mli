(** The governance sub-ledger as held by clients and auditors (§5.2).

    A chain of receipts — one per governance transaction plus the P-th
    end-of-configuration batch of every reconfiguration — verified
    incrementally from the genesis transaction. The chain determines which
    configuration (and hence which replica signing keys) was active at any
    sequence number, which is what receipt verification needs after
    membership changes.

    A chain holds one {!Iaccf_crypto.Sigcheck.create_private} key table,
    and every receipt it checks, governance or application, goes through
    it: a key gets its comb at its fourth use, on the chain's own copy,
    so no key value a caller holds changes. A client, a reader, an
    auditor and an enforcer's auditors each check receipts through their
    chain. *)

type t

val create : Iaccf_types.Genesis.t -> pipeline:int -> t
(** Chain holding only the genesis; configuration 0 is active. *)

val add_receipt : t -> Receipt.t -> (unit, string) result
(** Append the next governance receipt. The receipt is verified under the
    configuration the chain says was active when it was produced; passing
    votes extend the chain with the next configuration (active from
    [vote_seqno + 2P]); non-equivalent P-th end-of-configuration receipts
    for the same configuration are rejected as governance forks (Lemma 7). *)

val config_for_seqno : t -> int -> Iaccf_types.Config.t
(** The configuration active for a batch at the given sequence number. *)

val latest_config : t -> Iaccf_types.Config.t
val receipts : t -> Receipt.t list
val last_gov_index : t -> int
(** Highest governance-transaction ledger index incorporated so far. *)

val verify_receipt : t -> Receipt.t -> (unit, string) result
(** Verify an application receipt under the configuration this chain
    determines for its sequence number (extended validity, §5.2),
    through the chain's key table. *)

val sync_from : t -> Receipt.t list -> (unit, string) result
(** Feed a batch of governance receipts (e.g. fetched from a replica),
    skipping ones already present. *)
