(** The auditor's signature checks, collected first and checked in one
    pass (the replica checks each message as it arrives, through
    {!Vstage}).

    {!first_failure} counts each key's uses, builds a key's comb
    ({!Schnorr.precompute}) only where the uses repay it, then checks
    every job across [min (Domain.recommended_domain_count ()) (jobs / 128)]
    domains, the calling domain among them. The field multiplies and
    hash compressions the other domains make are added to the caller's
    {!Group.muls} and {!Sha256.blocks}, so the counts do not depend on
    the width. *)

type 'a t
(** A job list; each job carries a tag of type ['a]. *)

val create : unit -> 'a t

val add : 'a t -> Schnorr.public_key -> string -> signature:string -> 'a -> unit
(** [add t pk digest ~signature tag] queues [Schnorr.verify pk digest
    ~signature], tagged [tag]. *)

val first_failure : 'a t -> 'a option
(** Checks the queued jobs; the tag of the first job, in the order they
    were added, whose signature does not verify, or [None]. Jobs after
    that one may go unchecked. *)

val first_failure_at : width:int -> 'a t -> 'a option
(** {!first_failure} on exactly [width] domains (fewer past the
    runtime's domain limit): for tests that compare widths. *)
