(** Key-value store checkpoints (§3.4).

    A checkpoint serializes the committed map at a sequence number; its
    digest [d_C] is recorded in a later checkpoint transaction so replicas,
    clients, and auditors agree on the state without exchanging it. Auditors
    load a checkpoint to replay a ledger fragment (Alg. 4, replayLedger).

    Both the digest and the snapshot bytes walk {!State.t} in its own key
    order ([String.compare]): nothing is collected or sorted. *)

type t = {
  seqno : int;  (** sequence number the checkpoint was taken at *)
  state : string State.t;
}

val make : seqno:int -> string State.t -> t

val digest : t -> Iaccf_crypto.Digest32.t
(** Canonical digest: SHA-256 over [u64 seqno] followed by every binding
    in key order as [u32 len ‖ key ‖ u32 len ‖ value]. *)

val serialize : t -> string
(** [u64 seqno], [u32] binding count, then the bindings in key order,
    encoded as in {!digest}. *)

val deserialize : string -> t
(** @raise Iaccf_util.Codec.Decode_error on malformed input. *)

val genesis : t
(** The empty checkpoint at sequence number 0. *)
