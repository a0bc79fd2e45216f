(** Chained HotStuff [62], the baseline of Tab. 2, Fig. 5, and Tab. 3.

    A faithful-in-shape implementation: rotating leaders propose blocks
    extending the highest quorum certificate, replicas send one signed vote
    per block to the next leader, and a block commits when it heads a
    three-chain of consecutive certified blocks. Replies reach clients
    after commit — ~4.5 network round trips versus IA-CCF's 2 (Tab. 2).
    No ledger or key-value store is maintained, matching the paper's
    description of the baseline. *)

type command = {
  c_id : Iaccf_crypto.Digest32.t;
  c_payload : string;
  c_client : int;
  c_sig : string;  (** client signature over the command id *)
}

type msg =
  | Cmd of command
  | Proposal of block
  | Vote of { v_height : int; v_block : Iaccf_crypto.Digest32.t; v_replica : int; v_sig : string }
  | NewQc of qc
  | HsReply of { r_cmd : Iaccf_crypto.Digest32.t; r_replica : int }

and block
and qc

type cluster

val spawn :
  n:int ->
  ?max_batch:int ->
  sched:Iaccf_sim.Sched.t ->
  network:msg Iaccf_sim.Network.t ->
  seed:int ->
  unit ->
  cluster
(** Create and register [n] replicas (addresses [0..n-1]). *)

val committed_commands : cluster -> int
val signatures_made : cluster -> int
val signatures_verified : cluster -> int

(** {1 Client} *)

type client

val client :
  cluster ->
  address:int ->
  sched:Iaccf_sim.Sched.t ->
  network:msg Iaccf_sim.Network.t ->
  client

val submit : client -> payload:string -> on_complete:(latency_ms:float -> unit) -> unit
(** Completion fires on [f+1] matching replies. *)

val client_latencies : client -> float list
