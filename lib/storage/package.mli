(** Ledger packages: the single-file audit bundle (§4, Alg. 4).

    A package carries everything an offline auditor needs as inputs to
    Alg. 4: the full entry sequence (genesis first), an optional checkpoint
    to replay from, and the receipts under dispute (kept as opaque
    serialized blobs so this layer stays below the protocol library). The
    whole body is CRC-protected and the embedded Merkle root must match the
    entries on import — a package that was truncated or tampered with in
    transit is rejected, not audited. *)

module Entry = Iaccf_ledger.Entry
module Ledger = Iaccf_ledger.Ledger
module Checkpoint = Iaccf_kv.Checkpoint
module D = Iaccf_crypto.Digest32

exception Package_error of string

type t = {
  pkg_entries : Entry.t list;  (** full ledger, genesis first *)
  pkg_checkpoint : Checkpoint.t option;
  pkg_receipts : string list;  (** serialized [Receipt.t] blobs *)
  pkg_m_root : D.t;
  pkg_m_size : int;
  pkg_ledger : Ledger.t option;
      (** the ledger built from the entries when the package was decoded
          or bundled by {!of_entries}; [None] from {!of_ledger} *)
}

val of_ledger :
  ?checkpoint:Checkpoint.t -> ?receipts:string list -> Ledger.t -> t

val of_entries :
  ?checkpoint:Checkpoint.t -> ?receipts:string list -> Entry.t list -> t
(** Bundle an explicit entry sequence (genesis first); the Merkle root and
    size are computed from the entries. This is how a store packages its
    own contents ([Store.prune_before], [export-package --from]) without a
    dependency cycle between the two modules. *)

val to_ledger : t -> Ledger.t
(** The in-memory ledger: [pkg_ledger] when there is one (its root was
    checked on import, and every call returns that same ledger, so a
    caller that appends to it must not call again), else rebuilt from the
    entries. *)

val genesis : t -> Iaccf_types.Genesis.t

val serialize : t -> string
val deserialize : string -> t
(** @raise Package_error on bad magic, checksum, codec, or root mismatch. *)

val write_file : string -> t -> unit
(** Serialize to [path] atomically (tmp file + fsync + rename), so a crash
    mid-export never leaves a truncated package at the final name. *)

val read_file : string -> t
(** @raise Package_error also on unreadable files. *)
