(** The multiplicative group used by {!Schnorr}.

    Elements live modulo the pseudo-Mersenne prime [p = 2^255 - 19];
    exponents (scalars) live modulo the group exponent [n = p - 1]. Both are
    10 radix-2^25.5 limbs sharing one straight-line multiply kernel, which
    reduces lazily and fully only at encoding. Simulation substitute for the
    paper's secp256k1: same 256-bit modular cost profile. *)

type elt
(** A group element, possibly not fully reduced. Compare encodings. *)

type scalar
(** An exponent, always canonical ([< n]). *)

val g : elt
(** The fixed generator (2). *)

val element_of_limbs : int array -> elt
(** The raw representation: 10 little-endian limbs of 26 and 25 bits
    alternately, limb 1 up to [2^8 - 1] over as the kernels leave it, so
    not necessarily below [p]; for tests of the kernel.
    @raise Invalid_argument on any other shape. *)

val mul : elt -> elt -> elt
(** Product mod [p]. *)

val sqr : elt -> elt
(** Square mod [p]. *)

val pow : elt -> scalar -> elt
(** [pow b e] is [b^e mod p] by a 4-bit fixed window: 252 squarings and
    at most 79 multiplications. For bases without a {!table}. *)

type table
(** A Lim-Lee comb for one base: 8 rows of 32 bits, 256 entries. *)

val make_table : elt -> table
(** [make_table b] builds the comb for [b]: 224 squarings and 247
    multiplications. *)

val pow_table : table -> scalar -> elt
(** [pow_table t e] is [b^e mod p] for the base [t] was built from: 31
    squarings and at most 32 multiplications. *)

val pow_g : scalar -> elt
(** [pow_g e] is [g^e mod p], {!pow_table} on g's comb, built once at
    start-up (used by signing and key generation). *)

val pow_g_table : scalar -> table -> scalar -> elt
(** [pow_g_table a t b] is [g^a * y^b mod p] for the base [y] of [t]. Both
    combs share one squaring chain: 31 squarings and at most 64
    multiplications (a tabled key's signature check). *)

val muls : unit -> int
(** Field multiplications and squarings finished on the calling domain
    so far, every exponentiation and table build included. Differences
    between two reads count the field work in between,
    deterministically. *)

val add_muls : int -> unit
(** [add_muls n] adds [n] to the calling domain's {!muls}: for work a
    helper domain did on this domain's behalf. *)

val element_of_bytes : string -> elt option
(** Decode a 32-byte big-endian element; [None] if out of range or zero. *)

val element_to_bytes : elt -> string
(** Fixed 32-byte big-endian encoding of the canonical residue. *)

val scalar_one : scalar
val scalar_is_zero : scalar -> bool

val scalar_of_bytes : string -> scalar
(** Interpret 32 bytes big-endian and reduce mod [n].
    @raise Invalid_argument on any other length. *)

val scalar_of_canonical : string -> scalar option
(** Decode 32 big-endian bytes; [None] unless the value is below [n]. *)

val scalar_to_bytes : scalar -> string
(** Fixed 32-byte big-endian encoding. *)

val scalar_mul_add : scalar -> scalar -> scalar -> scalar
(** [scalar_mul_add a b c] is [a*b + c mod n]. *)

val scalar_neg : scalar -> scalar
(** [scalar_neg e] is [-e mod n]. *)
