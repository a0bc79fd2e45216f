(** Service configurations (§5.1).

    A configuration names the consortium members and the active replica set,
    together with each replica's signing key endorsed by the member that
    operates it. The genesis transaction carries configuration number 0;
    every passed referendum produces the next configuration. *)

type member = {
  member_name : string;
  member_pk : Iaccf_crypto.Schnorr.public_key;
}

type replica_info = {
  replica_id : int;
      (** stable ids in [0 .. 63]; replicas keep their id across
          reconfigurations (ids double as network addresses and bitmap
          positions) *)
  operator : string;  (** [member_name] of the member operating the replica *)
  replica_pk : Iaccf_crypto.Schnorr.public_key;
  endorsement : string;
      (** operator's signature over the replica key (binds blame to the
          member, §5.1) *)
}

type t = {
  config_no : int;  (** distance from genesis (Appx. B.2) *)
  members : member list;
  replicas : replica_info list;
  vote_threshold : int;  (** votes needed to pass a referendum *)
}

val n_replicas : t -> int

val f : t -> int
(** Fault threshold: [ceil(N/3) - 1]. *)

val quorum : t -> int
(** [N - f]. *)

val primary_of_view : t -> int -> int
(** The replica id of the primary for a view: the [(view mod N)]-th replica
    id in ascending order. *)

val replica : t -> int -> replica_info option
val replica_pk : t -> int -> Iaccf_crypto.Schnorr.public_key option
val operator_of_replica : t -> int -> string option
val is_member_pk : t -> Iaccf_crypto.Schnorr.public_key -> bool

val endorsement_payload : t -> replica_id:int -> pk:Iaccf_crypto.Schnorr.public_key -> Iaccf_crypto.Digest32.t
(** The digest a member signs to endorse a replica key. The configuration
    number makes endorsements single-use across reconfigurations. *)

val validate : t -> (unit, string) result
(** Structural checks: dense replica ids, known operators, valid
    endorsements, sane vote threshold. Endorsements are checked through
    a {!Iaccf_crypto.Sigcheck} table of this call's own. *)

val encode : Iaccf_util.Codec.W.t -> t -> unit
val decode : Iaccf_util.Codec.R.t -> t
val serialize : t -> string
val deserialize : string -> t
val equal : t -> t -> bool
