(** The multiplicative group used by {!Schnorr}.

    Elements live modulo the pseudo-Mersenne prime [p = 2^255 - 19];
    exponents (scalars) live modulo the group exponent [n = p - 1]. Both are
    fixed 11-limb numbers sharing one in-place multiply kernel, which
    reduces lazily and fully only at encoding. Simulation substitute for the
    paper's secp256k1: same 256-bit modular cost profile. *)

type elt
(** A group element, possibly not fully reduced. Compare encodings. *)

type scalar
(** An exponent, always canonical ([< n]). *)

val g : elt
(** The fixed generator (2). *)

val element_of_limbs : int array -> elt
(** The raw representation: 11 little-endian 24-bit limbs, not
    necessarily below [p]; for tests of the kernel.
    @raise Invalid_argument on any other shape. *)

val mul : elt -> elt -> elt
(** Product mod [p]. *)

val sqr : elt -> elt
(** Square mod [p]. *)

val pow : elt -> scalar -> elt
(** [pow b e] is [b^e mod p] by a 4-bit fixed window: 252 squarings and
    at most 79 multiplications. *)

val pow_g : scalar -> elt
(** [pow_g e] is [g^e mod p] from a 4-bit comb built once at start-up: at
    most 64 multiplications and no squarings (used by signing). *)

type table

val make_table : elt -> table
(** [make_table b] precomputes [b^(2^i)] for [i < 255] (254 squarings).
    With the table, [pow_table] costs one multiplication per set exponent
    bit and no squarings. *)

val pow_table : table -> scalar -> elt
(** [pow_table t e] is [b^e mod p] for the base [t] was built from. *)

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
