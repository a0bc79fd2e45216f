(** The replica's and the auditor's signature check: each hands its own
    stage's {!verify} to [Message.verify_*] and [Request.verify] as their
    [check]. Receipts, clients and the observer's reader call the same
    checks with their default, plain [Schnorr.verify].

    {!verify} interns the key, builds its fixed-base table
    ({!Schnorr.precompute}) on the key's third use, verifies, and charges
    the check to a {!Profile} under its message class and principal. *)

type t

val create : ?obs:Iaccf_obs.Obs.t -> ?profile:Profile.t -> unit -> t
(** [obs] (default: a private passive registry) receives the
    [crypto.keys.precomputed] counter, one per table built. [profile]
    (default {!Profile.disabled}) is charged for every verification. *)

val verify :
  t ->
  cls:string ->
  principal:Profile.principal ->
  Schnorr.public_key ->
  string ->
  signature:string ->
  bool
(** [verify t ~cls ~principal pk digest ~signature] is
    [Schnorr.verify pk digest ~signature], accelerated by the key's table
    once it has one. *)
