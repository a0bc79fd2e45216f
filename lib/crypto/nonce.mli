(** Nonce commitments (§3.1 of the paper).

    A replica samples a fresh nonce per (view, sequence number), puts the
    nonce's hash in the signed pre-prepare/prepare message, and later reveals
    the nonce in its (unsigned) commit message. Revealing a preimage of the
    committed hash proves the replica prepared the batch without a second
    signature (Appx. A, Lemma 3). *)

type t = private string
(** A 32-byte nonce. *)

val generate : Iaccf_util.Rng.t -> t
(** Fresh random nonce. *)

val derive : key:string -> view:int -> seqno:int -> t
(** Deterministic per-(view, seqno) nonce from a replica-private key, used
    so simulated replicas are reproducible; indistinguishable from random to
    other parties. *)

val commit : t -> Digest32.t
(** The hash placed in signed messages. *)

val reveal : t -> string
val of_revealed : string -> t option

val check : commitment:Digest32.t -> t -> bool
(** [check ~commitment nonce] is [true] iff [commit nonce = commitment]. *)

val opens : commitment:Digest32.t -> string -> bool
(** A revealed string opens a commitment when {!of_revealed} accepts it
    and it {!check}s: a preimage of another length never does. *)
