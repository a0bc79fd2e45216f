(** A verifying read client for the observer tier.

    Observers are outside the trust boundary: this reader accepts an
    observer's answer only after re-deriving everything locally. For a
    read it recomputes the write-set hash from the supplied write set,
    checks the served value is the one the writing transaction installed,
    verifies the accompanying receipt against the service configuration
    (fetching governance sub-ledger receipts across reconfigurations,
    §5.2), and enforces a freshness floor — the writing transaction's
    ledger index must be at least [min_index], so an observer replaying
    old state is detected, not believed. For a status poll it tracks the
    per-ID status state machine and counts any transition the stable
    semantics forbid (COMMITTED <-> INVALID, PENDING -> UNKNOWN). *)

open Iaccf_core

type read_result = {
  rd_key : string;
  rd_value : string option;
  rd_verified : bool;
      (** receipt checked against the service quorum AND the value bound
          to the writing transaction's write set AND fresh enough *)
  rd_index : int option;  (** writing transaction's ledger index *)
  rd_receipt : Receipt.t option;
  rd_error : string option;
      (** why verification failed ([None] for a clean unverified answer,
          e.g. an absent key, which carries no evidence to check) *)
}

type audit_result = {
  au_index : int;  (** ledger index the path vouches for *)
  au_leaf : Iaccf_crypto.Digest32.t;
  au_root : Iaccf_crypto.Digest32.t;
  au_ok : bool;  (** the path reproduces [au_root] from the leaf *)
}

type t

val create :
  address:int ->
  genesis:Iaccf_types.Genesis.t ->
  pipeline:int ->
  sched:Iaccf_sim.Sched.t ->
  network:Wire.t Iaccf_sim.Network.t ->
  ?obs:Iaccf_obs.Obs.t ->
  unit ->
  t

val read :
  t -> observer:int -> key:string -> ?min_index:int -> (read_result -> unit) -> unit
(** Ask an observer for a key. [min_index] is the freshness floor —
    typically [oc_index] from the reader's own write receipt (or a
    client's {!Client.min_index}); a verified answer whose writer sits
    below it is reported as stale, never as verified. *)

val poll_status : t -> observer:int -> txid:Status.txid -> unit
(** Fire one status query; the answer lands in the per-ID tracking table
    (see {!last_status}, {!status_violations}). *)

val last_status : t -> txid:Status.txid -> Status.t
(** Latest status an observer reported for the ID (UNKNOWN if never
    polled). *)

val wait_for_commit :
  t ->
  observer:int ->
  txid:Status.txid ->
  ?deadline_ms:float ->
  ?initial_backoff_ms:float ->
  (Status.t -> unit) ->
  unit
(** Poll an observer for a transaction ID with exponential backoff
    (doubling from [initial_backoff_ms], capped at 500 ms) until the
    status is terminal — COMMITTED or INVALID — or the deadline passes,
    in which case the callback gets the last non-terminal answer
    (PENDING/UNKNOWN). Mirrors CCF's client-side commit confirmation. *)

val fetch_audit_path :
  t -> observer:int -> index:int -> (audit_result -> unit) -> unit
(** Ask an observer for the Merkle inclusion path of a ledger entry and
    check the path actually reproduces the claimed root. *)

val verified_reads : t -> int
val failed_verifications : t -> int

val stale_detected : t -> int
(** Answers that verified cryptographically but whose writer index was
    below the freshness floor — the stale-observer detection count. *)

val status_violations : t -> int
(** Observer status answers that violated {!Status.transition_ok} for an
    ID this reader had polled before. *)
