(** The requesting side of catch-up (§3.4 checkpoint-based bootstrap).

    A replica catches up with one request: "send me the ledger from
    length [n] on", tagged with an {!offer} policy that says whether the
    peer may answer with a snapshot offer instead of suffix extents.
    Accepting an offer opens a session with the offering peer. This module
    runs that session: it bounds what it accepts, windows the snapshot
    chunk requests, buffers the ledger suffix, re-requests on a silent
    tick and moves to another peer on a second, and decides when the
    assembled snapshot may be installed.

    The replica feeds it events and carries out the {!action}s it returns,
    in order. Verification primitives come in as {!hooks} with the offer
    that opens a session; the session never touches the replica's ledger
    or key-value store. *)

(** {1 Offer policy (the serving side)} *)

type offer =
  | Never  (** answer with suffix extents only *)
  | If_far
      (** offer a snapshot when the requester is far behind the checkpoint
          (two checkpoint intervals) or behind the server's pruned prefix *)
  | Always  (** offer whenever a servable sealed snapshot exists *)

val offer_to_string : offer -> string

val should_offer :
  offer -> from_len:int -> cp_end:int -> served:int -> pruned_upto:int ->
  interval:int -> bool
(** Whether a server holding a servable sealed snapshot whose checkpoint
    batch ends at ledger length [cp_end] answers a request from
    [from_len] with an offer. [served] is the server's safe ledger
    length, [pruned_upto] the prefix it pruned from disk, [interval] the
    checkpoint interval. *)

(** {1 The requesting side} *)

type hooks = {
  verify_pp : Iaccf_types.Message.pre_prepare -> bool;
      (** primary signature on a pre-prepare *)
  check_suffix :
    cp_seqno:int -> Iaccf_ledger.Entry.t list -> (Validate.checked, string) result;
      (** {!Validate.check_suffix} of the buffered suffix against the
          caller's ledger, which it leaves untouched *)
  peers : unit -> int list;  (** replicas other than the caller *)
}

type install = {
  cp : Iaccf_kv.Checkpoint.t;
  digest : Iaccf_crypto.Digest32.t;  (** the sealed digest [cp] reproduces *)
  extent : Validate.checked;  (** the suffix from [suffix_from], as checked *)
  seal_seqno : int;  (** the checkpoint batch that seals [digest] *)
  peer : int;
  upto : int;  (** the peer's advertised safe ledger length *)
  view : int;  (** the highest view the peer reported *)
  suffix_from : int;
  started : float;  (** when the offer was accepted *)
}

type action =
  | Request_chunks of { peer : int; cp_seqno : int; indices : int list }
  | Request_suffix of { peer : int; from_len : int }
      (** catch-up request with the {!Never} policy *)
  | Retarget of int
      (** the session was abandoned: catch up from this peer instead,
          with the {!If_far} policy *)
  | Install of install
      (** the session is over and everything the gate checks held *)

type t

val create : obs:Iaccf_obs.Obs.t -> node:int -> metrics:Metrics.t -> t
(** No session in flight. [node] labels trace events. *)

val syncing : t -> bool
(** Whether a session is in flight. *)

val on_offer :
  t -> hooks -> src:int -> cp_seqno:int -> total:int -> bytes:int -> upto:int ->
  view:int -> last_committed:int -> rollback:(unit -> int) -> action list
(** A peer's snapshot offer. Accepted only when no session is in flight,
    the checkpoint is past [last_committed], and the dimensions are
    sane. Accepting calls [rollback], which drops the caller's
    uncommitted suffix and returns its ledger length: the suffix is
    buffered from there. *)

val on_chunk : t -> src:int -> cp_seqno:int -> index:int -> string -> action list
(** A snapshot chunk; ignored unless it belongs to the session. *)

val on_suffix :
  t -> src:int -> from:int -> Iaccf_ledger.Entry.t list -> upto:int ->
  view:int -> action list option
(** A ledger-suffix extent. [None] when it is not from the session's
    peer (the caller applies it incrementally). An extent that does not
    continue the buffer exactly — a gap or a replay — is dropped. *)

val tick : t -> action list
(** The caller's periodic progress tick. The first silent tick
    re-requests the missing chunks and the next suffix extent; the second
    abandons the peer. *)
