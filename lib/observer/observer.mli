(** A non-voting observer node: the read tier (§2 trust model, CCF's
    receipts + [GET /app/tx]).

    An observer wraps a {e passive} replica — its id is in no
    configuration, so it can never vote, sign prepares, or emit batches —
    and tails an existing replica's ledger through the state-sync
    protocol (plain suffix fetch, or snapshot bootstrap + verified suffix
    replay). Every fetched entry goes through the same verification as
    replica state transfer: Merkle-root chaining, batch re-execution,
    signed pre-prepare checks. On top of that state the observer serves,
    entirely off the quorum path:

    - {b status queries} ([Wire.Status_query]): the UNKNOWN / PENDING /
      COMMITTED / INVALID answer of {!Replica.tx_status} for a
      [view.seqno] transaction ID;
    - {b reads} ([Wire.Read_query]): the current value of a key together
      with the writing transaction's normalized write set and a receipt
      for it, so the reader can verify the value against the service's
      signing quorum instead of trusting the observer;
    - {b audit paths} ([Wire.Audit_query]): the Merkle inclusion path of
      a ledger entry in the observer's tree [M].

    Observers are untrusted: a reader accepts nothing an observer says
    without receipt verification (see {!Reader}). A stopped or Byzantine
    observer can serve stale or forged answers; the reader detects both. *)

open Iaccf_core

val default_base : int
(** Conventional first observer address (9000) — far above replica ids
    (< 64) and client addresses (from {!Cluster.client_base}). *)

type t

val spawn : Cluster.t -> addr:int -> ?source:int -> ?snapshot:bool -> unit -> t
(** [create] with everything taken from a cluster (genesis, app, params,
    scheduler, network, a forked RNG, the shared obs registry). *)

val address : t -> int

val replica : t -> Replica.t
(** The inner passive replica (its ledger, store, and status table are
    the state the observer serves from). *)

val synced_upto : t -> int
(** Highest sequence number the observer has verified and applied. *)

val stop_tailing : t -> unit
(** Freeze the inner replica: it stops fetching new ledger suffixes, but
    the observer {e keeps serving} queries from its now-stale state —
    exactly the stale-observer fault the chaos tier injects. *)
