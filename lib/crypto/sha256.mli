(** SHA-256 (FIPS 180-4), pure OCaml.

    Substitute for the EverCrypt SHA functions used by the paper's prototype;
    tested against the NIST test vectors. *)

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
    domain have made so far. Differences between two reads count the
    hashing work in between, deterministically. *)
