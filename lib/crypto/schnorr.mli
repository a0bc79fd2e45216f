(** Schnorr signatures over {!Group}.

    Replaces the paper's secp256k1 signatures: a keypair signs 32-byte
    digests and produces 64-byte signatures; verification performs two
    256-bit modular exponentiations, matching ECDSA's cost shape. Nonces are
    deterministic (HMAC over the secret key and digest, RFC 6979 style), so
    simulated runs are reproducible. *)

type secret_key
type public_key

val public_key_equal : public_key -> public_key -> bool

val keypair_of_seed : string -> secret_key * public_key
(** Derive a keypair deterministically from arbitrary seed bytes. *)

val public_key : secret_key -> public_key

val public_key_to_bytes : public_key -> string
(** 32 bytes. *)

val public_key_of_bytes : string -> public_key option

val precompute : public_key -> unit
(** Build the key's comb ({!Group.make_table}; done once, about the cost
    of 1.9 untabled [verify] calls): later [verify] calls against this
    key compute [g^s * y^(-e)] in one pass over both combs, about 2.5x
    faster. Worth it for a key that verifies three more times or more —
    replica keys, repeat clients. Idempotent; safe to race. *)

val has_table : public_key -> bool
(** Whether [precompute] has run for this key. *)

val sign : secret_key -> string -> string
(** [sign sk digest] signs a 32-byte [digest]; the result is 64 bytes.
    @raise Invalid_argument if [digest] is not 32 bytes. *)

val verify : public_key -> string -> signature:string -> bool
(** [verify pk digest ~signature] checks a 64-byte signature on a 32-byte
    digest; malformed inputs verify as [false]. *)
