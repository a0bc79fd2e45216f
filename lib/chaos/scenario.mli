(** Chaos scenario DSL.

    A scenario composes scripted fault actions on the simulator's virtual
    clock over a paced client workload, and declares what the
    accountability machinery must conclude afterwards ({!expect}):

    - [Tolerated] — the faults stay below the threshold the protocol
      masks: every request completes, the receipts are linearizable, and a
      full audit of an exported ledger package is clean.
    - [Blamed] — the faults are scripted misbehaviour by a known culprit
      set: the audit must produce an enforcer-verified uPoM blaming at
      least [f+1] replicas, all of them culprits (zero false blame).

    Three harnesses build scenarios: {!live} scripts faults against a real
    cluster, {!forged} lets a colluding quorum fabricate ledgers offline
    with the replicas' own keys (generalizing {!Iaccf_core.Forge}), and
    {!custom} drives multiple cluster lifetimes (crash/recovery). *)

module Genesis = Iaccf_types.Genesis
module Ledger = Iaccf_ledger.Ledger
module Checkpoint = Iaccf_kv.Checkpoint
open Iaccf_core

type suite = Core | Byzantine | Recovery

val suite_name : suite -> string
val suite_of_name : string -> suite option

type expect =
  | Tolerated
  | Blamed of { culprits : int list }

type ctx = { cx_cluster : Cluster.t; cx_seed : int; cx_scratch : string }
(** What a fault action sees when it fires. *)

type step = { st_at_ms : float; st_label : string; st_act : ctx -> unit }

(** The run's evidence, handed to the oracle. *)
type outcome = {
  oc_genesis : Genesis.t;
  oc_params : Replica.params;
  oc_receipts : Receipt.t list;  (** receipts the clients assembled *)
  oc_gov_receipts : Receipt.t list;
  oc_ledger : Ledger.t;  (** the responder's ledger *)
  oc_checkpoint : Checkpoint.t option;
  oc_responder : int;
  oc_submitted : int;
  oc_completed : int;
  oc_lincheck_closed : bool;
      (** receipts are closed over the state they touch, so the
          linearizability check applies *)
  oc_obs : Iaccf_obs.Obs.t;  (** the run's metrics registry *)
}

type t = {
  sc_name : string;
  sc_suite : suite;
  sc_expect : expect;
  sc_run : seed:int -> scratch:string -> outcome;
}

(** {1 Fault actions} *)

val at : float -> string -> (ctx -> unit) -> step
(** [at ms label act] fires [act] at virtual time [ms]. *)

val crash_replica : int -> ctx -> unit
val restart_replica : int -> ctx -> unit
val partition : int list -> int list -> ctx -> unit
val partition_oneway : int list -> int list -> ctx -> unit
val heal_pair : int -> int -> ctx -> unit
val heal : ctx -> unit
val set_loss : float -> ctx -> unit

val byzantine : int -> Byz.behaviour -> ctx -> unit
(** Wrap a replica's outbound messages with a scripted behaviour. *)

val honest : int -> ctx -> unit
(** Remove a replica's Byzantine wrapper. *)

val suspect_primary : int -> ctx -> unit
(** Make a replica suspect the primary now. *)

(** {1 Harnesses} *)

val live :
  name:string ->
  suite:suite ->
  ?n:int ->
  ?requests:int ->
  ?proc:string ->
  ?timeout_ms:float ->
  ?expect:expect ->
  ?params:Replica.params ->
  step list ->
  t

type forgery = {
  fg_receipts : Receipt.t list;
  fg_gov_receipts : Receipt.t list;
  fg_ledger : Ledger.t;
}

type collusion = {
  co_genesis : Genesis.t;
  co_app : App.t;
  co_seed : int;
  co_forge : unit -> Forge.t;  (** a fresh forge over the culprits' keys *)
  co_request : ?client_seqno:int -> string -> string -> Iaccf_types.Request.t;
}

val forged : name:string -> culprits:int list -> ?n:int -> (collusion -> forgery) -> t
(** A Byzantine-suite scenario in which the [culprits] (at least a quorum,
    including replica 0) fabricate the evidence offline. *)

val custom :
  name:string ->
  suite:suite ->
  ?expect:expect ->
  (seed:int -> scratch:string -> outcome) ->
  t

(** {1 Shared helpers} *)

val workload :
  ?pace_ms:float ->
  ?proc:string ->
  ?args:(int -> string) ->
  timeout_ms:float ->
  Cluster.t ->
  Client.t ->
  int ->
  Receipt.t list * int
(** Submit a paced workload and wait for completion (or timeout); returns
    the receipts in submission order and the completion count. *)

val pick_responder : Cluster.t -> Replica.t
(** The active replica with the longest ledger. *)

val faulty_f : Genesis.t -> int
(** [f] for the genesis configuration's size. *)
