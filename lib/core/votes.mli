(** A replica's votes and the one rule that reads them (§3.1, §3.3,
    Alg. 1 and 4).

    The rule: a backup's prepare counts for a pre-prepare when it names
    that pre-prepare's slot and hash; a revealed nonce counts when it opens
    its sender's commitment, the pre-prepare's for the primary and the
    sender's own prepare's for a backup. A nonce that does not open is
    missing evidence, never a vote.

    The rule decides when a batch prepares and commits, which N−f evidence
    the primary writes P batches later, which signatures form a receipt,
    and whether a backup holds the evidence a pre-prepare names. The
    auditor checks ledger evidence with {!prepare_fault} and
    {!nonce_fault}, the same predicates the stores are read through. *)

module Message = Iaccf_types.Message
module D = Iaccf_crypto.Digest32

type t

val create : nonce_key:string -> t
(** Empty stores; [nonce_key] derives this replica's own nonces. *)

(** {1 The rule, on evidence in hand} *)

val prepare_fault : Message.pre_prepare -> pph:D.t -> Message.prepare -> string option
(** Why a prepare cannot count for the pre-prepare whose hash is [pph]:
    another slot, another pre-prepare, or the primary's own. *)

val nonce_fault :
  Message.pre_prepare -> Message.prepare list -> int * string -> string option
(** Why replica [r]'s revealed nonce cannot count for the pre-prepare,
    given the backups' prepares: [r] is a backup without a prepare, or the
    nonce does not open ({!Iaccf_crypto.Nonce.opens}) [r]'s commitment. *)

(** {1 Stores} *)

val add_prepare : t -> Message.prepare -> unit
(** Keep a prepare under its slot and sender, replacing an earlier one. *)

val add_nonce : t -> view:int -> seqno:int -> int * string -> unit
(** Keep [r]'s revealed nonce for the slot, replacing an earlier one. It
    is judged when the rule reads it, not here. *)

val prepare_of : t -> view:int -> seqno:int -> int -> Message.prepare option

val commit_own : t -> view:int -> seqno:int -> D.t
(** Derive this replica's nonce for the slot, keep it for its commit and
    replies, and return the commitment its signed message carries. *)

val own_nonce : t -> view:int -> seqno:int -> string option

(** {1 The rule, on the stores} *)

val prepared_count : t -> Message.pre_prepare -> int
(** Backups whose prepare counts for the pre-prepare. *)

val committed : t -> Message.pre_prepare -> quorum:int -> bool
(** At least [quorum] nonces open: the primary's and the backups'. *)

val quorum_backups :
  t -> Message.pre_prepare -> quorum:int -> (int * Message.prepare * string) list option
(** The first [quorum - 1] backups, ascending by id, whose prepare and
    nonce both count: the backups that evidence and receipts name. *)

val evidence_for :
  t ->
  Message.pre_prepare ->
  quorum:int ->
  (Message.prepare list * (int * string) list * Iaccf_util.Bitmap.t) option
(** The primary's commitment evidence for a batch: the quorum backups'
    prepares, the nonces of the primary and those backups ascending by id,
    and the bitmap of their ids. *)

val evidence_matching :
  t ->
  Message.pre_prepare ->
  quorum:int ->
  Iaccf_util.Bitmap.t ->
  (Message.prepare list * (int * string) list) option
(** A backup's match of the evidence a pre-prepare names by bitmap: the
    rule restricted to the bitmap's members, in the layout of
    {!evidence_for}. [None] when the bitmap is not the primary plus
    [quorum - 1] backups, or a member's vote does not count here yet. *)
