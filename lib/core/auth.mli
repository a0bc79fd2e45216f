(** A replica's authentication work, and every Table 3 ablation row
    ({!Variant}) that changes what the replica does.

    The replica asks this module, never the variant record: how to sign
    and check protocol messages (Schnorr, or HMAC under row f), whether to
    check client signatures (row e), the extra PeerReview and signed-commit
    crypto on send, commit, reply and receive, whether receipt material is
    sent (row b), and whether checkpoints (row c) and the ledger (row g)
    are kept. It owns the signing key, the signature checker
    ({!Iaccf_crypto.Sigcheck}) and the [replica.<id>.sigs_made],
    [sigs_verified] and [macs_computed] counters; every operation is
    charged to the profiler under the message class that demanded it. *)

module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32

type t

val create :
  Variant.t ->
  sk:Schnorr.secret_key ->
  rid:int ->
  obs:Iaccf_obs.Obs.t ->
  profile:Iaccf_crypto.Profile.t ->
  t

val signatures_made : t -> int
val signatures_verified : t -> int
val macs_computed : t -> int

val receipts : t -> bool
(** Row b: whether the replica sends receipt material (replyx). *)

val checkpoints : t -> bool
(** Row c. *)

val keep_ledger : t -> bool
(** Row g. *)

val sign : t -> cls:string -> D.t -> string
(** This replica's authenticator on a signing payload: a Schnorr
    signature, or an HMAC under row f. *)

val verify : t -> Iaccf_types.Config.t -> cls:string -> Iaccf_types.Message.check
(** [verify t cfg ~cls] checks another replica's authenticator; handed to
    [Message.verify_*] as their [check]. An id [cfg] does not know fails
    and counts nothing. *)

val verify_request : t -> service:D.t -> Iaccf_types.Request.t -> bool
(** The client signature check, or [true] when row e skips it. *)

val sent : t -> Wire.t -> unit
(** PeerReview signs every message it sends. *)

val commit_sent : t -> view:int -> seqno:int -> replica:int -> unit
(** PeerReview and the signed-commit ablation sign commit messages;
    L-PBFT's nonce reveal does not (§3.1, Lemma 3). *)

val commit_received : t -> Iaccf_types.Config.t -> Iaccf_types.Message.commit -> unit
(** The signed-commit ablation pays the check the nonce scheme saves; the
    result gates nothing. *)

val replies_sent : t -> Schnorr.public_key list -> unit
(** PeerReview signs a reply per client rather than relying on the nonce
    scheme. *)

val ack : t -> self:int -> src:int -> Wire.t -> Wire.t option
(** PeerReview checks every message a replica receives and acknowledges
    each one that is not itself an acknowledgement: the signed [Ack_msg]
    to send back to [src]. *)
