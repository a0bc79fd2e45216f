(** The auditor's signature checks, queued while the ledger scan runs and
    checked on helper domains as they arrive (the replica checks each
    message as it arrives, through {!Vstage}).

    {!start} takes the plan, the key of every job the caller expects to
    queue, and starts [min (Domain.recommended_domain_count ()) (planned
    jobs / 128)] - 1 helper domains. The first of them (the caller, if
    none starts) counts each key's uses and builds a comb
    ({!Schnorr.precompute}) on a copy of each key whose uses repay it,
    while the caller {!add}s jobs; no job is checked before that. Jobs
    are published to the helpers 32 at a time, and a helper that has
    caught up with the caller sleeps until the next 32 are published.
    {!close} publishes the rest, so the helpers can finish the list while
    the caller does other work; {!finish} has the caller check a share of
    what is left and joins the helpers.

    Every queued job is checked, by exactly one domain. The field
    multiplies and hash compressions the helpers make are added to the
    caller's {!Group.muls} and {!Sha256.blocks}, so the counts do not
    depend on the width or on which domain checked which job. *)

type 'a t
(** A job list; each job carries a tag of type ['a]. *)

val start : ?width:int -> Schnorr.public_key list -> 'a t
(** [start planned] opens a job list whose jobs are expected to use the
    keys [planned], one per job in any order. The combs follow from the
    plan alone, so the same plan builds the same combs at any width.
    [width] (default as above) fixes the number of domains, the caller's
    among them; fewer start past the runtime's domain limit or when fewer
    jobs are planned. The plan's key values get no comb: a caller may
    check signatures against them meanwhile. *)

val add : 'a t -> Schnorr.public_key -> string -> signature:string -> 'a -> unit
(** [add t pk digest ~signature tag] queues [Schnorr.verify pk digest
    ~signature], tagged [tag]. The job checks against the one key value
    kept for [pk]'s bytes, with its comb if it has one. *)

val close : 'a t -> unit
(** No more jobs: the helpers may take every job queued. Idempotent. *)

val finish : 'a t -> 'a option
(** Closes the list, checks jobs on the caller until none is left, and
    joins the helpers: the tag of the first job, in the order they were
    added, whose signature does not verify, or [None]. *)

val planned : 'a t -> bool
(** Whether the jobs queued so far used each key exactly as often as the
    plan said. *)
