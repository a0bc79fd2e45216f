(** The multiplicative group used by {!Schnorr}.

    Arithmetic modulo the pseudo-Mersenne prime [p = 2^255 - 19] with fast
    reduction (a 510-bit product folds as [hi*19 + lo]). Exponents live
    modulo the group exponent [n = p - 1]. Simulation substitute for the
    paper's secp256k1: same 256-bit modular cost profile. *)

val p : Bignum.t
(** The field prime, [2^255 - 19]. *)

val n : Bignum.t
(** The exponent modulus, [p - 1]. *)

val g : Bignum.t
(** The fixed generator (2). *)

val reduce : Bignum.t -> Bignum.t
(** [reduce x] is [x mod p], using the pseudo-Mersenne fold. *)

val mul : Bignum.t -> Bignum.t -> Bignum.t
(** Product mod [p]. Arguments must already be reduced. *)

val pow : Bignum.t -> Bignum.t -> Bignum.t
(** [pow b e] is [b^e mod p] by square-and-multiply with fast reduction. *)

val pow_g : Bignum.t -> Bignum.t
(** [pow_g e] is [g^e mod p] using a precomputed fixed-base table
    (~2x faster than [pow g e]; used by signing). *)

val make_table : Bignum.t -> Bignum.t array
(** [make_table b] precomputes the fixed-base table [b^(2^i)] for
    [i] in [0, 256) (255 squarings). With the table, [pow_table] costs one
    multiplication per set exponent bit and no squarings — worth building
    for any key that verifies more than two signatures. *)

val pow_table : Bignum.t array -> Bignum.t -> Bignum.t
(** [pow_table t e] is [b^e mod p] for the base [t] was built from.
    [e] must be reduced mod {!n}. *)

val multi_pow : (Bignum.t * Bignum.t) list -> Bignum.t
(** [multi_pow [(b1, e1); ...]] is [prod bi^ei mod p] by Straus
    shared-window (4-bit) multi-exponentiation: the squaring chain is paid
    once for the whole product. Empty list yields [one]. *)

val scalar_of_bytes : string -> Bignum.t
(** Interpret bytes big-endian and reduce mod [n]. *)

val element_of_bytes : string -> Bignum.t option
(** Decode a 32-byte group element; [None] if out of range or zero. *)

val element_to_bytes : Bignum.t -> string
(** Fixed 32-byte big-endian encoding. *)
