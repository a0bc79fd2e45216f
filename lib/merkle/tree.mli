(** Append-only Merkle tree over 32-byte leaf digests.

    L-PBFT maintains one tree [M] over all ledger entries and one per-batch
    tree [G] over the batch's transaction entries (§3.1, Fig. 3). Both are
    instances of this module.

    The hashing scheme is RFC 6962's Merkle Tree Hash: leaves are hashed with
    a [0x00] prefix and interior nodes with a [0x01] prefix (domain
    separation prevents leaf/node confusion attacks); an [n]-leaf tree splits
    at the largest power of two smaller than [n]. Roots and audit paths are
    therefore a pure function of the leaf sequence, which is what lets
    receipts be checked by anyone.

    Appends are O(log n) amortized. [truncate] supports roll-back of
    speculatively executed batches (Appx. A, Lemma 1): nodes are only ever
    removed from the right. *)

type t

val create : unit -> t

val empty_root : Iaccf_crypto.Digest32.t
(** Root of the zero-leaf tree (hash of the empty string, per RFC 6962). *)

val size : t -> int
val append : t -> Iaccf_crypto.Digest32.t -> unit

val root : t -> Iaccf_crypto.Digest32.t

val root_at : t -> int -> Iaccf_crypto.Digest32.t
(** [root_at t n] is the root the tree had with its first [n] leaves, at
    the cost of [root] on an [n]-leaf tree and without copying it.
    @raise Invalid_argument unless [0 <= n <= size t]. *)

val leaf : t -> int -> Iaccf_crypto.Digest32.t
(** The i-th leaf digest (as appended, before leaf-hashing). *)

val truncate : t -> int -> unit
(** [truncate t n] rolls the tree back to its first [n] leaves. *)

val path : t -> int -> Iaccf_crypto.Digest32.t list
(** [path t i] is the audit path for leaf [i]: the sibling digests from the
    leaf to the root ([S] in the paper's receipts).
    @raise Invalid_argument if [i] is out of range. *)

val verify_path :
  leaf:Iaccf_crypto.Digest32.t ->
  index:int ->
  size:int ->
  path:Iaccf_crypto.Digest32.t list ->
  root:Iaccf_crypto.Digest32.t ->
  bool
(** Recompute the root from a leaf digest and its audit path; [true] iff it
    matches [root]. Pure function: used by clients and auditors that do not
    hold the tree. *)

val leaf_hash : Iaccf_crypto.Digest32.t -> Iaccf_crypto.Digest32.t
val node_hash : Iaccf_crypto.Digest32.t -> Iaccf_crypto.Digest32.t -> Iaccf_crypto.Digest32.t

val of_leaves : Iaccf_crypto.Digest32.t list -> t
(** The tree [append] would build from these leaves in order, with every
    level allocated once at its final length. *)

val root_of_leaves : Iaccf_crypto.Digest32.t list -> Iaccf_crypto.Digest32.t
(** [root (of_leaves leaves)]. *)

val copy : t -> t

val frontier : t -> Iaccf_crypto.Digest32.t list
(** The peaks of the tree's binary decomposition, highest level first: one
    interior-node (or leaf-hash) digest per set bit of [size t]. Together
    with the size these determine the root and every future append, which
    is what lets a pruned store resume its tree without the leaves. *)

val of_frontier : size:int -> Iaccf_crypto.Digest32.t list -> t
(** Rebuild a tree of [size] leaves from its [frontier] (as returned by
    {!frontier}: highest level first). The result supports [append],
    [root], [size] and [truncate n] for [n >= size] exactly as the
    original tree; [leaf], [path] and [truncate] below [size] are
    undefined (they would read pruned nodes).
    @raise Invalid_argument if the peak count does not match [size]. *)
