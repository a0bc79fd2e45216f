(** SHA-256 (FIPS 180-4), pure OCaml.

    Substitute for the EverCrypt SHA functions used by the paper's prototype;
    tested against the NIST test vectors and a straightforward oracle.

    {b Per-domain scratch.} Every compression on a domain uses one shared
    64-word message schedule, and {!digest} and {!digest_concat} reset and
    reuse one shared context, so a one-shot digest allocates only its
    32-byte result. This is safe because a digest never calls out while it
    holds that scratch, and nothing else can run on the domain in between:
    no systhreads exist in this program, and no signal handler or
    finaliser in [lib/] hashes. Code that adds one of those must not hash
    from it. The background worker ({!Iaccf_util.Worker}) is a domain, not
    a systhread, so the checkpoint digests it computes use its own
    scratch. Streaming contexts from {!init} hold their own state, so any
    number may be live at once and interleave with one-shot digests. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit

val finalize : ctx -> string
(** 32-byte digest. The context must not be reused afterwards. *)

val digest : string -> string
(** [digest s] is the 32-byte SHA-256 digest of [s]. *)

val digest_concat : string list -> string
(** [digest_concat parts] hashes the concatenation of [parts] without
    building the intermediate string. *)

val blocks : unit -> int
(** Compression-function calls that digests finalized on the calling
    domain have made so far, plus those of finished {!count_here} jobs it
    handed to other domains. Differences between two reads count the
    hashing work in between, deterministically once every such job has
    finished ({!Iaccf_util.Worker.drain}). *)

val add_blocks : int -> unit
(** [add_blocks n] adds [n] to the calling domain's {!blocks}: for
    hashing a helper domain did on this domain's behalf. *)

val count_here : (unit -> 'a) -> unit -> 'a
(** [count_here f] is [f] as a job for another domain: the compressions
    it makes there count toward the {!blocks} of the domain that called
    [count_here], once the job has finished, whether or not its result is
    ever read. It must not run on the calling domain, whose own count
    already has them. *)
