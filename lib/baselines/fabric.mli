(** Hyperledger Fabric v2.2 model (Fig. 4 baseline).

    Execute-order-validate with a crash-fault-tolerant (Raft) ordering
    service [33]: clients collect per-transaction endorsement signatures
    from endorsing peers, the orderer sequences endorsed transactions
    (leader append, no BFT), and every peer validates all endorsement
    signatures before applying the write set. The per-transaction
    signatures — one per endorser per transaction, plus validation
    verifies — are the dominant cost the paper identifies (§6.1), and they
    are performed for real here. *)

type msg

type cluster

val spawn :
  peers:int ->
  endorsement_policy:int ->
  sched:Iaccf_sim.Sched.t ->
  network:msg Iaccf_sim.Network.t ->
  seed:int ->
  unit ->
  cluster
(** [peers] endorsing/committing peers (addresses [0..peers-1]) plus an
    orderer at address [peers]. [endorsement_policy] is how many
    endorsements each transaction needs. *)

val committed : cluster -> int
val signatures_made : cluster -> int
val signatures_verified : cluster -> int

type client

val client :
  cluster ->
  address:int ->
  sched:Iaccf_sim.Sched.t ->
  network:msg Iaccf_sim.Network.t ->
  client

val submit : client -> payload:string -> on_complete:(latency_ms:float -> unit) -> unit
val client_latencies : client -> float list
