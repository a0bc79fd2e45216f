(** Scripted Byzantine replica wrappers.

    Each behaviour is an outbound-message rewrite installed on the network
    (see {!Iaccf_sim.Network.set_intercept}): the wrapped replica's own code
    stays honest, but what the rest of the deployment observes from it is
    adversarial. Signed forgeries are re-signed with the replica's real key
    — the point of the below-threshold suite is that validly signed
    misbehaviour from fewer than [f+1] replicas is masked by the protocol,
    not caught by signature checks. *)

type behaviour =
  | Equivocate_pre_prepares
      (** send conflicting, validly signed pre-prepares for the same
          (view, seqno) to different backups *)
  | Tamper_replyx
      (** corrupt the recorded execution output in replyx messages sent to
          clients (the receipt's Merkle path exposes it) *)
  | Withhold_nonces
      (** never reveal nonces: drop outgoing commit and reply messages *)
  | Equivocate_nonces
      (** reveal the real nonce to replica 0 and 32 bytes that open nothing
          to every other replica *)
  | Corrupt_view_changes
      (** break the signature on every outgoing view-change message *)
  | Pad_new_view
      (** turn every outgoing view change into a new view whose set is that
          view change, reporting nothing prepared, repeated a quorum of
          times: one sender counted as a quorum would roll every honest
          replica back to genesis *)
  | Mute  (** drop every outbound message (a silent crash, seen from outside) *)

val intercept :
  sk:Iaccf_crypto.Schnorr.secret_key ->
  genesis:Iaccf_types.Genesis.t ->
  client_base:int ->
  behaviour ->
  dst:int ->
  Iaccf_core.Wire.t ->
  (int * Iaccf_core.Wire.t) list
(** The network intercept implementing a behaviour for a replica holding
    [sk] in the service [genesis] starts. [client_base] distinguishes
    client destinations from replicas. *)
