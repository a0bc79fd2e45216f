(** The append-only ledger with its binding Merkle tree M (§2, Fig. 3).

    Every appended entry gets a ledger index; entries for which
    {!Entry.in_merkle_tree} holds also become leaves of M in order. The tree
    root before appending a pre-prepare is the [m_root] the primary signs,
    committing it to the entire ledger prefix. [truncate] rolls back both
    the entry log and M, supporting batch roll-back and view changes. *)

type t

type sink = {
  sink_append : int -> string -> unit;
      (** called with the new index and the entry's serialized bytes *)
  sink_truncate : int -> unit;  (** called with the new length *)
}
(** A write-through backend (e.g. the durable segmented store): notified
    after every successful [append] and every effective [truncate], in
    order, so a persistent copy tracks the in-memory ledger exactly.

    Failure atomicity: the in-memory append happens first, then the sink
    runs. If [sink_append] raises (e.g. the durable store hit disk-full),
    the exception propagates to the appender with the ledger one entry
    ahead of the backend — the backend must then be considered failed and
    the exception must not be swallowed. The store's sink also verifies the
    backend wrote the same index the ledger assigned, so silent drift
    between the two histories is detected immediately. *)

val create : Iaccf_types.Genesis.t -> t
(** Fresh ledger holding only the genesis entry at index 0. *)

val set_sink : t -> sink option -> unit
(** Attach or detach the write-through backend. Attaching does not replay
    the existing prefix — the backend is expected to have been backfilled
    (see [Storage.Store.attach]). *)

val of_entries : Entry.t list -> t
(** Rebuild a ledger (e.g. a received fragment treated as a full ledger
    prefix) from raw entries. *)

val of_serialized : string list -> t
(** [of_serialized raws] is [of_entries (List.map Entry.deserialize raws)],
    with each leaf hashed from its bytes in [raws] instead of from the
    entry serialized again.
    @raise Invalid_argument if the first entry is not the genesis;
    [Codec.Decode_error] if an entry does not decode. *)

val length : t -> int
val get : t -> int -> Entry.t
val append : t -> Entry.t -> int
val m_root : t -> Iaccf_crypto.Digest32.t
val m_size : t -> int

val m_tree_copy : t -> Iaccf_merkle.Tree.t
(** A private copy of M, for side-effect-free validation of a candidate
    suffix against future roots (the state-sync install gate) without
    touching the ledger itself. *)

val append_extent : t -> Iaccf_merkle.Tree.t -> Entry.t list -> unit
(** [append_extent t m entries] appends [entries], taking [m] as M
    instead of hashing their leaves again: [m] must be M (a
    {!m_tree_copy}) with exactly their leaves appended, as the install
    gate builds it. The sink sees each entry as {!append} would show it;
    if it raises, M already holds every leaf of [entries].
    @raise Invalid_argument if [m]'s size is not M's plus their leaves. *)

val m_path : t -> int -> Iaccf_crypto.Digest32.t list
(** The audit path of M's leaf [i] in M as it stands. *)

val truncate : t -> int -> unit
val iteri : (int -> Entry.t -> unit) -> t -> unit
val entries : t -> ?from:int -> ?until:int -> unit -> (int * Entry.t) list
(** Inclusive [from], exclusive [until]; defaults cover the whole ledger. *)

val m_size_at : t -> int -> int
(** M's size over the first [i] ledger entries. *)

val m_root_at : t -> int -> Iaccf_crypto.Digest32.t
(** [m_root_at t i] is M's root over the M-bound entries among the first [i]
    ledger entries — i.e. the root the primary signed in the pre-prepare at
    index [i]. *)

val find_pre_prepare : t -> seqno:int -> (int * Iaccf_types.Message.pre_prepare) option
(** Highest-view pre-prepare for [seqno], with its ledger index. *)

val governance_indices : t -> int list
(** Ledger indices of governance transactions (genesis and transactions
    whose procedure is in the reserved "gov/" namespace), ascending. *)

val serialize : t -> string
val deserialize : string -> t

val total_bytes : t -> int
(** Sum of serialized entry sizes (ledger growth metric). *)
