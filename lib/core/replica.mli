(** An L-PBFT replica (Alg. 1, Alg. 2, §3.4, §5.1).

    The replica is an event-driven state machine attached to a simulated
    network: the primary batches requests, executes them early, and emits
    signed pre-prepares whose Merkle roots commit it to the entire ledger;
    backups re-execute and compare roots before preparing; nonce
    commitments replace commit-message signatures; commitment evidence for
    batch [s-P] is appended to the ledger just before the pre-prepare for
    [s]. View changes and reconfigurations keep the ledger auditable. *)

module Schnorr = Iaccf_crypto.Schnorr
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis

type params = {
  pipeline : int;  (** P >= 1: concurrent batches in flight *)
  checkpoint_interval : int;  (** C > P: checkpoint every C sequence numbers *)
  max_batch : int;  (** maximum requests per batch *)
  batch_delay_ms : float;  (** how long the primary waits to fill a batch *)
  vc_timeout_ms : float;  (** progress timeout before a view change *)
  variant : Variant.t;
  snapshot_interval : int;
      (** persist a durable snapshot every this many sequence numbers once
          the checkpoint is sealed (requires [storage]; multiples of
          [checkpoint_interval] are sensible); [0] disables writing *)
  admission_queue : int;
      (** > 0: the primary sheds a fresh request with a {!Wire.Busy_msg}
          (before paying for signature verification) whenever its pending
          queue already holds this many requests; rejections land in the
          registry-wide [load.rejected] counter, admissions in
          [load.admitted], and the primary's queue depth in the
          [queue.depth] gauge (peak via {!Iaccf_obs.Obs.gauge_max}).
          [0] (default) admits everything — byte-identical to the
          pre-admission replica. *)
}

val default_params : params

type stats = {
  signatures_made : int;
  signatures_verified : int;
  macs_computed : int;
  batches_committed : int;
  txs_executed : int;
  txs_committed : int;
  view_changes : int;
  checkpoints_taken : int;
}

type t

val create :
  id:int ->
  sk:Schnorr.secret_key ->
  genesis:Genesis.t ->
  app:App.t ->
  params:params ->
  sched:Iaccf_sim.Sched.t ->
  network:Wire.t Iaccf_sim.Network.t ->
  client_address:(Schnorr.public_key -> int option) ->
  rng:Iaccf_util.Rng.t ->
  ?obs:Iaccf_obs.Obs.t ->
  ?profile:Iaccf_crypto.Profile.t ->
  ?storage:Iaccf_storage.Store.t ->
  unit ->
  t
(** The replica registers itself on the network under address [id].

    With [profile] (default: disabled), every signing, verification, MAC
    and batch-execution operation on this replica is timed on the wall
    clock and charged to the profiler under its message class — the
    Table-3-shaped cost breakdown. Profiling never touches the obs
    registry, so metrics snapshots stay deterministic.

    With [obs] (default: a private counting-only registry) the replica's
    tallies land there as [replica.<id>.*] counters, and — when the
    registry has metrics/tracing on — each batch is traced as an async
    span through the protocol phases (pre-prepare acceptance, prepare
    certificate, commit), the per-phase latencies are observed into the
    shared [lat.*] histograms (by the batch's primary only, so each batch
    counts once), and commits stamp a [commit:<seqno>] mark that clients
    use to measure commit-to-receipt latency.

    A
    replica whose [id] is not in the genesis configuration stays passive
    until a reconfiguration activates it (it then fetches state, §5.1).
    When [storage] is given it becomes the ledger's write-through durable
    backend: appends and view-change truncations reach disk in order
    (backfilling any prefix the store is missing on attach). A non-empty
    store is a cold start: the replica checks the persisted genesis names
    this service, adopts the history up to the newest durable snapshot the
    install gate passes (or none) and replays the rest through the
    state-transfer validation path. {!Iaccf_storage.Store.attach} then drops
    at most a trailing partially-written batch; any deeper replay failure
    raises [Iaccf_storage.Store.Storage_error] rather than touching the
    store. *)

val start : t -> unit
(** Arm timers and begin participating. *)

val stop : t -> unit
(** Crash-fault injection: the replica stops sending and receiving. *)

val id : t -> int
val config : t -> Config.t
val view : t -> int
val active : t -> bool
val next_seqno : t -> int
val last_committed : t -> int
val ledger : t -> Iaccf_ledger.Ledger.t
val storage : t -> Iaccf_storage.Store.t option
val store : t -> Iaccf_kv.Store.t

val stats : t -> stats
(** A fresh snapshot of the replica's obs counters in the historical
    record shape; mutating the returned record does not affect the
    replica. *)

val obs : t -> Iaccf_obs.Obs.t
val pending_requests : t -> int

val checkpoint_at : t -> int -> Iaccf_kv.Checkpoint.t option
(** The checkpoint taken at a given sequence number, if retained. *)

val tx_status : t -> view:int -> seqno:int -> Status.t
(** The status of transaction ID [view.seqno] (CCF's [GET /app/tx] shape),
    by {!Status_index}'s stability rule: COMMITTED and INVALID only for
    sequence numbers at least [pipeline] behind the committed horizon,
    PENDING for anything else the replica has seen (even a locally
    committed batch a new-view may still roll back), UNKNOWN otherwise. *)

val stable_committed : t -> int
(** The highest seqno whose status is answered terminally. *)

val last_write : t -> string -> (int * int) option
(** [(seqno, tx_position)] of the committed transaction that last wrote the
    key, if indexed (keys last written before an installed snapshot's
    horizon are not — their writer was never executed locally). *)

val tx_write_set :
  t -> seqno:int -> tx_position:int -> (string * Iaccf_kv.Store.write) list option
(** The normalized write set of a locally executed transaction; its
    {!Iaccf_kv.Store.write_set_hash} equals the hash bound into the
    transaction's ledger entry (and hence into any receipt for it). *)

val dispatch : t -> src:int -> Wire.t -> unit
(** Feed one wire message through the replica's normal dispatch, as if it
    had arrived from network address [src]. Observers wrap a passive
    replica and register their own network handler, delegating every
    non-observer message here. *)

val build_receipt : t -> seqno:int -> tx_position:int option -> Receipt.t option
(** Assemble a receipt for a committed batch from stored evidence:
    [tx_position] selects a transaction in the batch, [None] makes a
    batch-subject receipt (used for the governance sub-ledger). *)

val gov_receipts : t -> Receipt.t list
(** Receipts of the governance sub-ledger, ascending (§5.2). *)

val g_trees_held : t -> int
(** Batch records still holding the g-tree built when the batch ran. A
    record drops it once its first replies are sent. *)

val preload_state : t -> (string * string) list -> unit
(** Install application state that is modelled as part of the genesis
    (bench setup); must be called before any batch executes. *)

val inject_view_change : t -> unit
(** Force this replica to suspect the primary now (tests). *)

val join : t -> from:int -> unit
(** A replica added by reconfiguration fetches the ledger from an existing
    replica, replays it, and activates once it appears in the current
    configuration (§5.1). Sends the catch-up request with the [If_far]
    policy: the peer offers a snapshot only if we are far behind. *)

val join_snapshot : t -> from:int -> unit
(** Checkpoint-based bootstrap (§3.4): the catch-up request with the
    [Always] policy. The peer answers with a chunked snapshot offer (or a
    plain ledger suffix if it has none); the joiner verifies the assembled
    snapshot against the digest sealed in a signed checkpoint batch and
    the suffix against the Merkle root chain before installing, then
    replays only the tail. *)

val prune : t -> int
(** Compact the durable store: export everything before the newest sealed,
    durably-snapshotted checkpoint into the store's audit package, then
    drop those segments from disk. Returns the number of entries pruned
    (0 when there is nothing safe to prune). The in-memory ledger is
    unaffected — peers can still fetch the full history from this replica,
    and [iaccf audit --package] over the exported package still covers the
    dropped prefix.
    @raise Invalid_argument without [storage]. *)
