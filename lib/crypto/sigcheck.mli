(** Signature checks against per-key combs, with one key table and one
    rule for when a key gets its comb.

    The table interns keys by their encoding and counts each key's uses.
    Decoded messages carry a fresh key value each, so without it no comb
    would be shared. It holds at most 4,096 keys; past that (a Byzantine
    peer minting keys) a new key is checked untabled and not counted. A
    key gets its comb ({!Schnorr.precompute}) at the first use where
    {!comb_pays} holds of its uses so far: its fourth.

    Two entry points apply the rule:
    - {!verify} checks now. The replica reaches it through [Auth], which
      counts and profiles each check; receipts, clients and the
      observer's reader call [Schnorr.verify] directly.
    - {!start}, {!add}, {!close} and {!finish} keep the auditor's job
      list, checked on helper domains while the caller goes on queuing.
      Jobs are published to the helpers 32 at a time, and a helper that
      has caught up with the caller sleeps until the next 32 are
      published. {!close} publishes the rest, so the helpers can finish
      the list while the caller does other work; {!finish} has the
      caller check a share of what is left and joins the helpers.

    Every queued job is checked, by exactly one domain. The field
    multiplies and hash compressions the helpers make are added to the
    caller's {!Group.muls} and {!Sha256.blocks}, so the counts do not
    depend on the width or on which domain checked which job. *)

val comb_pays : int -> bool
(** [comb_pays uses]: whether [uses] checks save more time against a
    comb than building it costs, at the unit costs of
    [BENCH_crypto.json]. True from 4 uses. *)

(** {1 Check now} *)

type t
(** A key table. *)

val create : ?obs:Iaccf_obs.Obs.t -> unit -> t
(** [obs] (default: a private passive registry) receives the
    [crypto.keys.precomputed] counter, one per comb built. *)

val verify : t -> Schnorr.public_key -> string -> signature:string -> bool
(** [verify t pk digest ~signature] is [Schnorr.verify pk digest
    ~signature], counted as a use of [pk]'s key and checked against the
    key value interned for it, with its comb once it has one. The comb
    is built on that value itself, the first one seen for the key. *)

(** {1 The job list} *)

type 'a jobs
(** A job list with its own key table; each job carries a tag of type
    ['a]. *)

val start : ?width:int -> expected:int -> unit -> 'a jobs
(** [start ~expected ()] opens a job list for about [expected] jobs and
    starts [min (Domain.recommended_domain_count ()) (expected / 128)] - 1
    helper domains. [width] fixes the number of domains instead, the
    caller's among them; fewer start past the runtime's domain limit. *)

val add : 'a jobs -> Schnorr.public_key -> string -> signature:string -> 'a -> unit
(** [add t pk digest ~signature tag] queues [Schnorr.verify pk digest
    ~signature], tagged [tag], as a use of [pk]'s key. The job checks
    against the key value interned for it. When the rule fires, the
    caller builds the comb on a copy, which replaces the interned value
    for later jobs. *)

val close : 'a jobs -> unit
(** No more jobs: the helpers may take every job queued. Idempotent. *)

val finish : 'a jobs -> 'a option
(** Closes the list, checks jobs on the caller until none is left, and
    joins the helpers: the tag of the first job, in the order they were
    added, whose signature does not verify, or [None]. *)
