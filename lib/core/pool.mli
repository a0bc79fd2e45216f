(** The pending-request pool T (Alg. 1) and where each executed request
    landed: the one record of a request's life in a replica. A request is
    pending, executed or unknown, never two at once, and pending ones keep
    their arrival order. The replica keeps the effects (replies, counters,
    traces). *)

type t
type request := Iaccf_types.Request.t
type hash := Iaccf_crypto.Digest32.t

val create : unit -> t
val size : t -> int
val pending : t -> request list (** oldest first *)

val known : t -> hash -> bool (** pending or executed *)

val executed_at : t -> hash -> (int * int) option (** (seqno, ledger index) *)

val admit : t -> request -> bool
(** Take an unknown request in as the newest pending one; [false] if known. *)

val execute : t -> request -> seqno:int -> index:int -> unit
(** The request executed at (seqno, ledger index), pending or not. *)

val return : t -> request -> bool
(** A rollback undid it: pending again, as the newest; [false] if it is. *)

val resolves : t -> hash list -> bool (** every hash names a known request *)

val batch : t -> hash list -> request list option
(** The pending requests the hashes name, in order; [None] if one is not
    pending or one repeats, which once {!resolves} holds is a replay. *)

val take : t -> max:int -> base_index:int -> request list
(** The next batch, left pending: oldest first, at most [max], skipping a
    request that may not take its index (the k-th taken lands at
    [base_index + k]) and ending after a governance request. *)
