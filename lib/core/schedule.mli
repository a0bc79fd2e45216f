(** The batch schedule (§3.4, §5.1): which kind of batch each sequence
    number carries, and how a configuration change moves through its
    phases.

    Checkpoints fall every [interval] batches. A vote that passes at seqno
    [v] is followed by 2P end-of-configuration batches. The new
    configuration takes over after [v + 2P] (the activation batch, after
    which a checkpoint is taken), opens with a checkpoint batch recording
    it, then runs P start-of-configuration batches. No interval checkpoint
    falls inside a reconfiguration.

    The primary plans with {!slot}, a backup checks a pre-prepare with
    {!accepts} on the same slot, and both apply {!step} after executing a
    batch. The auditor and the governance chain read configurations from a
    {!timeline} built with {!extend}, whose boundary is {!activation}. *)

module Config = Iaccf_types.Config
module Batch = Iaccf_types.Batch
module D = Iaccf_crypto.Digest32

type rule = {
  pipeline : int;  (** P *)
  interval : int;  (** checkpoint interval *)
  checkpoints : bool;  (** interval checkpoints on (Table 3 row c) *)
}

type phase =
  | Normal
  | Ending of { vote_seqno : int; new_config : Config.t; committed_root : D.t }
      (** a vote passed at [vote_seqno]; [committed_root] is the ledger
          root after it, which every end-of-configuration batch carries *)
  | Starting of { cp_seqno : int }
      (** the new configuration took over after batch [cp_seqno] *)

val checkpoint_due : rule -> int -> bool
(** Whether seqno [s] falls on the checkpoint interval: outside a
    reconfiguration, it is a checkpoint batch, and a checkpoint is taken
    after it. *)

val activation : pipeline:int -> vote_seqno:int -> int
(** The activation batch of a vote passed at [vote_seqno]: [vote_seqno + 2P].
    The new configuration is active for every later seqno. *)

(** {1 What a seqno carries} *)

type slot =
  | Regular  (** a batch of requests *)
  | Fixed of Batch.kind  (** exactly this kind, with no requests *)
  | Closed  (** nothing, until the phase moves on *)

val slot : rule -> phase -> latest_cp:int -> digest:(int -> D.t option) -> int -> slot
(** The kind seqno [s] must carry in [phase]. [latest_cp] is the latest
    checkpoint taken and [digest] looks up a held checkpoint's digest; a
    checkpoint batch for a checkpoint not held is [Closed]. *)

val accepts : slot -> Batch.kind -> bool
(** Whether a pre-prepare of this kind fills the slot. *)

(** {1 After a batch executes} *)

type step = {
  next : phase;
  checkpoint : bool;  (** take a checkpoint of the state after the batch *)
  activate : Config.t option;  (** the configuration for later batches *)
}

val step : rule -> phase -> int -> passed:(unit -> (Config.t * D.t) option) -> step
(** The transition after batch [s] executes. [passed] is asked, in the
    normal phase only, for a configuration a vote in this batch installed
    and the ledger root after the batch. *)

val handed_over : phase -> last_committed:int -> bool
(** Whether a replica the configuration leaves out may retire: it has
    committed the activation batch, the last batch its configuration
    signs, and so revealed its nonce for it. *)

(** {1 Activation timeline} *)

type timeline
(** Configurations with the seqno after which each is active. *)

val timeline : Config.t -> timeline
(** The genesis configuration, active from seqno 1. *)

val extend : timeline -> pipeline:int -> vote_seqno:int -> Config.t -> timeline
(** The configuration a vote passed at [vote_seqno] installs, active after
    its {!activation}. It replaces entries activating at or after that
    point (a vote rewritten by a view change). *)

val config_at : timeline -> int -> Config.t
(** The configuration a batch at seqno [s] is signed and executed under. *)

val activates : timeline -> int -> bool
(** Whether [s] is an activation batch. *)

val latest : timeline -> Config.t
