(** Test/bench harness: a whole IA-CCF deployment in one simulator.

    Builds a genesis configuration (members, replica keys, endorsements),
    spawns replicas and clients on a simulated network, and runs the
    scheduler. Client addresses start at {!client_base} so replica ids never
    collide with them. *)

module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Schnorr = Iaccf_crypto.Schnorr

val client_base : int

val counter_app_procs : (string * App.procedure) list
(** The default app: a shared counter plus a no-op procedure. *)

type member_identity = {
  mi_name : string;
  mi_sk : Schnorr.secret_key;
  mi_pk : Schnorr.public_key;
}

(** {1 Standalone identity derivation}

    A multi-process fleet cannot share a [t]; instead every process
    derives the identical genesis and keys from the manifest's
    [(seed, n, n_members)] triple. These use exactly the derivation
    {!make} uses, so a simulator cluster and a socket fleet with the same
    seed are the same logical service. *)

val standalone_genesis : ?n_members:int -> seed:int -> n:int -> unit -> Genesis.t
(** @raise Invalid_argument if the derived configuration is invalid. *)

val standalone_replica_sk : seed:int -> id:int -> Schnorr.secret_key

type t

val make :
  ?seed:int ->
  ?n_members:int ->
  ?params:Replica.params ->
  ?latency:(Iaccf_util.Rng.t -> Iaccf_sim.Latency.t) ->
  ?app:App.t ->
  ?persist:Iaccf_storage.Store.config ->
  ?obs:Iaccf_obs.Obs.t ->
  ?profile:Iaccf_crypto.Profile.t ->
  n:int ->
  unit ->
  t
(** [make ~n ()] builds a service with [n] replicas operated round-robin by
    [n_members] members (default [n]), using the counter app plus any
    procedures of [app]. With [persist], every replica's ledger is backed
    by a durable segmented store under [persist.dir]/replica-<id> (the rest
    of the config — segment size, fsync policy — applies to each).
    Directories holding a previous run of the same service are restored:
    each replica replays its persisted ledger before participating (see
    {!Replica.create}).

    With [obs] (default: a private counting-only registry), the registry's
    clock is bound to the cluster's virtual clock and the registry is
    threaded through the network, every replica, client, and durable
    store, so one registry observes the whole deployment. *)

val sched : t -> Iaccf_sim.Sched.t
val network : t -> Wire.t Iaccf_sim.Network.t

val obs : t -> Iaccf_obs.Obs.t
(** The deployment's observability registry (the one passed to {!make},
    or the private passive one). *)

val genesis : t -> Genesis.t
val replicas : t -> Replica.t list
val replica : t -> int -> Replica.t
val members : t -> member_identity list
val params : t -> Replica.params
val app : t -> App.t

val fork_rng : t -> Iaccf_util.Rng.t
(** A deterministic child of the cluster's RNG, for components built on
    top of the cluster (observers) that need their own stream. *)

val replica_sk : t -> int -> Schnorr.secret_key
(** Secret key of a replica — used by tests that forge Byzantine messages. *)

val storage : t -> int -> Iaccf_storage.Store.t option
(** A replica's durable ledger store, when the cluster persists. *)

val sync_storage : t -> unit
(** Force every replica's durable store to fsync and refresh its
    root-of-trust file (e.g. before simulating a process exit). *)

val close_storage : t -> unit
(** Cleanly close every replica's durable store (sync + release file
    descriptors), e.g. before reopening the same directories in a fresh
    cluster to exercise cold-start restore. *)

val crash_storage : t -> unit
(** Drop every store's file descriptors {e without} syncing, simulating a
    process kill (see {!Iaccf_storage.Store.crash}). *)

val reserve_address : t -> int
(** Allocate the next client network address without building a client.
    The load generator registers one network endpoint under such an
    address and multiplexes millions of cheap sessions over it. *)

val bind_client_pk : t -> Schnorr.public_key -> addr:int -> unit
(** Route replica replies for requests signed by [pk] to [addr]. Sessions
    bind lazily — only identities that actually submit pay this entry. *)

val add_client : t -> ?verify_receipts:bool -> ?sign_requests:bool -> unit -> Client.t

val add_member_client : t -> member_identity -> Client.t
(** A client whose signing key is the member's key, for submitting
    governance transactions (propose/vote referenda, §5.1). *)

val run : t -> ms:float -> unit
(** Advance the simulation by [ms] virtual milliseconds. *)

val run_until : t -> ?timeout_ms:float -> (unit -> bool) -> bool
(** Run until the predicate holds; [false] on timeout. *)

val make_next_config :
  t ->
  ?add_replicas:int list ->
  ?remove_replicas:int list ->
  base:Config.t ->
  unit ->
  Config.t
(** Build a valid next configuration (endorsed keys, next config number)
    adding/removing the given replica ids. New replica ids get fresh keys
    derived from the cluster seed, matching {!spawn_replica}. *)

val spawn_replica : t -> id:int -> Replica.t
(** Create (and start) a replica for a future configuration; it stays
    passive until {!Replica.join} and activation. *)
