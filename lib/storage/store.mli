(** Durable segmented ledger store (§3, §4: the ledger as a shippable
    artifact).

    The store is the byte sink of one {!Ledger.t} (see {!attach}): it
    frames the bytes the ledger serialized as CRC-framed records (see
    {!Frame}) in fixed-size segment files [segment-<first_index>.iaccf]
    under one directory, with an in-memory offset index rebuilt on open. It
    keeps no Merkle tree of its own. A separate root-of-trust file
    [root.iaccf] records the length, M size and M root of the last synced
    prefix, as the ledger reports them. Recovery scans the segments,
    truncates torn tail frames, rebuilds M once over the surviving entries
    to check that file, and refuses to open a store whose durable root no
    longer matches — so a crash can only lose an unsynced suffix, never
    silently corrupt history. *)

module Entry = Iaccf_ledger.Entry
module Ledger = Iaccf_ledger.Ledger
module D = Iaccf_crypto.Digest32

exception Storage_error of string
(** Unrecoverable on-disk damage: corruption before the tail segment, a
    recovered prefix shorter than the durable root-of-trust, or a Merkle
    root mismatch against it. *)

type fsync_policy =
  | No_fsync  (** durability only on explicit [sync] / [close] *)
  | Fsync_always  (** fsync + root-of-trust update after every append *)
  | Fsync_interval of int
      (** fsync + root update every [n] appends, written by the background
          worker ({!Iaccf_util.Worker}) while appends go on; see {!sync} *)

type config = {
  dir : string;
  segment_bytes : int;  (** roll segments once they exceed this many bytes *)
  fsync : fsync_policy;
}

val default_config : dir:string -> config
(** 1 MiB segments, [Fsync_interval 64]. *)

type recovery_info = {
  ri_segments : int;  (** segment files found on open *)
  ri_entries : int;  (** entries recovered *)
  ri_torn_frames : int;  (** incomplete/corrupt tail frames truncated *)
  ri_torn_bytes : int;  (** bytes discarded from the tail segment *)
  ri_root_verified : bool;  (** a root-of-trust file existed and matched *)
}

type t

val open_store :
  ?readonly:bool -> ?obs:Iaccf_obs.Obs.t -> ?owner:int -> config -> t
(** Open (creating the directory if needed) and recover. Fresh directories
    start empty; existing ones are scanned, torn tail frames truncated, and
    the Merkle root rebuilt over the recovered entries checked against
    [root.iaccf]. Only that rebuilt root is kept: {!attach} checks a
    ledger against it.

    With [obs], appends, fsyncs and truncations are counted in that
    registry ([storage.appends], [storage.append_bytes], [storage.fsyncs],
    [storage.truncates] — shared by every store on the registry) and, when
    tracing is on, emitted as trace events under node id [owner] (e.g. the
    owning replica's id; default [0]).

    With [~readonly:true] (offline audit/export) the open performs {e no}
    on-disk mutation: torn tail frames are skipped in memory instead of
    truncated, dead segments are not unlinked, and [attach]/[prune_before]/
    [sync] raise [Storage_error]; [close] releases nothing destructive, so
    the directory stays byte-identical to the evidence that was found.
    @raise Storage_error as documented above. *)

val recovery : t -> recovery_info
val config : t -> config
val length : t -> int
val segments : t -> int
(** Number of live segment files. *)

val disk_bytes : t -> int
(** Total framed bytes across live segments. *)

val get : t -> int -> Entry.t
(** Read the entry at an index from its segment and decode it. *)

val prune_before : t -> int -> int
(** [prune_before t upto] compacts the store: every whole segment strictly
    behind [upto] (a ledger index the caller has covered with a durable
    checkpoint snapshot) is dropped, {e after} the pruned prefix is
    exported to the cumulative audit package [audit-prefix.iapkg] in the
    store directory — accountability evidence survives compaction, so
    [iaccf audit --package] over the export still replays the full history
    offline. The package always covers [0, upto) from genesis (it extends
    any previous export) and is verified against the attached ledger's
    Merkle root before anything is unlinked. A durable prune marker records
    the new base and M's frontier there, so reopening checks the
    root-of-trust without the pruned leaves. Returns the number of entries
    dropped (0 if no whole segment lies behind [upto]; the open tail
    segment is never dropped). @raise Invalid_argument if [upto] is out of
    range. @raise Storage_error if no ledger is attached. *)

val pruned_before : t -> int
(** First entry index still on disk: [0] for an unpruned store, otherwise
    the base set by the latest {!prune_before}. [get] below this index,
    [to_ledger], and a ledger truncation into the pruned region raise. *)

val package_path : t -> string
(** Path of the cumulative audit package written by {!prune_before}
    ([<dir>/audit-prefix.iapkg]); the file exists iff a prune happened. *)

val sync : t -> unit
(** fsync the tail segment and atomically rewrite the root-of-trust file
    to cover the store's full current length, with M's size and root taken
    from the attached ledger at that length (or, before {!attach}, the ones
    recovered on open). An interval sync in flight on the background
    worker finishes first, as it does before a segment roll, a truncation,
    {!prune_before}, {!close} and {!crash} touch the files; its failure is
    re-raised there. *)

val close : t -> unit
(** [sync] then release file descriptors. The store must not be used
    afterwards. *)

val crash : t -> unit
(** Test hook: drop file descriptors {e without} syncing or updating the
    root-of-trust file, simulating a process kill right after the last
    interval sync was written. *)

val to_ledger : t -> Ledger.t
(** Materialize the persisted entries as an in-memory ledger (recovery
    cold-start and package export). @raise Storage_error on a pruned store
    — reconstruct the full history from the audit package instead. *)

val history : t -> Entry.t list
(** Every persisted entry from genesis on: on a pruned store, the pruned
    prefix comes from the audit package {!prune_before} exported. The
    package carries no extra authority; callers validate the combined
    history exactly as an unpruned one. Retained entries are read one
    segment file at a time, each frame's CRC checked and its offset and
    length matched against the index.
    @raise Storage_error if the package is missing or too short. *)

val attach : t -> Ledger.t -> unit
(** Make the store the write-through backend of a ledger, once: from then
    on the installed {!Ledger.sink} is the store's only writer. It frames
    the bytes the ledger serialized, mirrors its truncations, and checks
    that store and ledger indices stay aligned on every append. Before
    anything destructive happens, the ledger's prefix plus any store
    surplus must reproduce the Merkle root recovered on open; only then is
    the store backfilled with any ledger suffix it is missing.

    A store {e longer} than the ledger is truncated to the ledger's length
    only when the surplus has the shape a crashed append leaves: evidence
    entries, then at most one pre-prepare followed by a prefix of its
    transactions. Any other surplus is refused with the store untouched —
    synced history is never silently dropped.

    If the durable append inside the sink fails (e.g. disk full), the
    exception propagates with the in-memory ledger one entry ahead of the
    store; the store must be treated as failed from that point on.
    @raise Storage_error if the shared prefix diverges, on a refused
    surplus, or if a ledger is already attached. *)
