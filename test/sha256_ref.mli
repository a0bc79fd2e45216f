(** SHA-256 (FIPS 180-4), written the straightforward way: the test oracle.

    One context per digest, a byte-at-a-time block loader, a fresh
    64-word schedule per context and all eight state words shifted every
    round. Slow, but easy to check against the standard; the tests check
    {!Iaccf_crypto.Sha256}'s unrolled kernel and its shared per-domain
    scratch against it. *)

val digest : string -> string
(** 32-byte digest. *)

val compressions : unit -> int
(** Compression-function calls this oracle has made so far (all
    domains). *)
