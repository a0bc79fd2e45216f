(** Arbitrary-precision natural numbers: the test oracle.

    Little-endian arrays of 24-bit limbs over native ints, so schoolbook
    products and carry chains never overflow 63-bit arithmetic. Slow and
    allocating, but generic; the tests check {!Iaccf_crypto.Group}'s
    fixed-limb field and scalar kernels against it. *)

type t

val zero : t
val one : t

val of_int : int -> t
(** @raise Invalid_argument on negatives. *)

val to_int_opt : t -> int option
val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] requires [a >= b]. @raise Invalid_argument otherwise. *)

val mul : t -> t -> t

val mul_small : t -> int -> t
(** [mul_small a m] with [0 <= m < 2^30]. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [r < b].
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t
val bit_length : t -> int
val test_bit : t -> int -> bool
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val mask_bits : t -> int -> t
(** [mask_bits a n] is [a mod 2^n]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m] by square-and-multiply with generic
    division. *)

val of_bytes_be : string -> t
val to_bytes_be : t -> string

val to_bytes_be_fixed : int -> t -> string
(** Left-zero-padded to exactly [len] bytes.
    @raise Invalid_argument if the value does not fit. *)

val of_hex : string -> t
val to_hex : t -> string
val pp : Format.formatter -> t -> unit
