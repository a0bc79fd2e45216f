(** Client transaction requests (Alg. 1, line 1):
    [t = <request, a, c, H(gt), m_i>_sigma_c].

    [a] is the stored procedure name plus arguments, [c] the client's public
    key, [H(gt)] the service name, and [m_i] the minimum ledger index before
    which the request must not execute — clients set it above the largest
    index they have a receipt for, capturing real-time ordering dependencies
    (Appx. B, Theorem 2). [client_seqno] distinguishes retransmissions of
    semantically identical requests.

    A request carries its own digest, hashed once when it is built or
    decoded. The type is private, so every request comes from
    {!make}, {!of_fields} or {!decode} and its digest always agrees with
    its fields; the digest is never written on the wire. *)

type t = private {
  proc : string;
  args : string;
  client_pk : Iaccf_crypto.Schnorr.public_key;
  service : Iaccf_crypto.Digest32.t;  (** H(gt) *)
  min_index : int;  (** m_i *)
  client_seqno : int;
  signature : string;
  digest : Iaccf_crypto.Digest32.t;  (** H(t): the hash of {!serialize} *)
}

val signing_payload :
  proc:string ->
  args:string ->
  client_pk:Iaccf_crypto.Schnorr.public_key ->
  service:Iaccf_crypto.Digest32.t ->
  min_index:int ->
  client_seqno:int ->
  Iaccf_crypto.Digest32.t

val make :
  sk:Iaccf_crypto.Schnorr.secret_key ->
  client_pk:Iaccf_crypto.Schnorr.public_key ->
  service:Iaccf_crypto.Digest32.t ->
  ?min_index:int ->
  ?client_seqno:int ->
  proc:string ->
  args:string ->
  unit ->
  t

val of_fields :
  client_pk:Iaccf_crypto.Schnorr.public_key ->
  service:Iaccf_crypto.Digest32.t ->
  ?min_index:int ->
  ?client_seqno:int ->
  ?signature:string ->
  proc:string ->
  args:string ->
  unit ->
  t
(** A request with [signature] taken as given (default empty: the
    unsigned requests of a client that does not sign). Nothing is
    checked; {!verify} does that. *)

val signed_digest : t -> Iaccf_crypto.Digest32.t
(** {!signing_payload} of the request's fields: what its signature
    signs. Hashed on each call. *)

val verify :
  ?check:
    (Iaccf_crypto.Schnorr.public_key -> Iaccf_crypto.Digest32.t -> signature:string -> bool) ->
  t ->
  service:Iaccf_crypto.Digest32.t ->
  bool
(** Addressed to this service (checked first), and [check] (default
    [Schnorr.verify]) accepts the signature over the signing payload. *)

val is_governance : t -> bool
(** The request calls a built-in governance procedure (["gov/..."]): it
    belongs to the governance sub-ledger (§5.2). *)

val may_execute_at : t -> index:int -> bool
(** The request may take ledger index [index]: none below its [m_i]. *)

val hash : t -> Iaccf_crypto.Digest32.t
(** Request digest, the handle used in pre-prepare batch lists [B]: the
    [digest] field, so it costs no hashing. *)

val trace_id : t -> string
(** Causal trace id: the first 12 hex chars of {!hash}. Content-derived, so
    every hop holding the request (client, primary, backups) recovers the
    same id with no wire-format change; used to correlate the client's e2e
    span, cross-replica flow events, and the receipt in a trace. *)

val encode : Iaccf_util.Codec.W.t -> t -> unit
val decode : Iaccf_util.Codec.R.t -> t
val serialize : t -> string
val deserialize : string -> t
