(** Strictly-serializable transactional key-value store (§2 of the paper).

    Transactions execute one at a time against the current map, a
    persistent {!State.t} kept in key order. The store keeps no history: a
    caller that may have to undo work (a speculatively executed batch that
    fails to prepare, Appx. A, Lemma 1) holds on to the {!map} it started
    from and puts it back with {!reset_to}. The state's digest [d_C] is
    {!Checkpoint.digest} over that map. The write-set hash is part of the
    result [o] stored in the ledger, letting auditors compare replayed
    execution against recorded execution without replaying the reads. *)

type t

type tx
(** An open transaction handle. *)

type write = Put of string | Delete
(** One write in a transaction's write set: the value installed under a
    key, or a tombstone. *)

val create : unit -> t
val of_map : string State.t -> t

val map : t -> string State.t
(** Current committed state. *)

val reset_to : t -> string State.t -> unit
(** Replace the state wholesale: app state present at genesis, an
    installed checkpoint, or the map a batch started from when the batch
    is undone. @raise Invalid_argument while a transaction is open. *)

val begin_tx : t -> tx
(** @raise Invalid_argument if a transaction is already open. *)

val get : tx -> string -> string option
val put : tx -> string -> string -> unit
val delete : tx -> string -> unit

val commit : tx -> Iaccf_crypto.Digest32.t
(** Commit the transaction; the result is the write-set hash: the digest of
    the sorted (key, value-or-tombstone) pairs written. *)

val commit_with_writes : tx -> Iaccf_crypto.Digest32.t * (string * write) list
(** Like {!commit}, additionally returning the normalized write set (one
    entry per key, sorted) whose digest is the write-set hash. A party
    holding the write set can recompute the hash with {!write_set_hash}
    and check key membership — the basis for verifiable observer reads. *)

val normalize_writes : (string * write) list -> (string * write) list
(** Canonical form of a raw (newest-first) write list: last write per key
    wins, sorted by key. Idempotent. *)

val write_set_hash : (string * write) list -> Iaccf_crypto.Digest32.t
(** The digest {!commit} returns, computed from a write list that is
    already normalized ({!normalize_writes}); the list is hashed as
    given. *)

val abort : tx -> unit
