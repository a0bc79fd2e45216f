(** Deterministic pseudo-random number generator (splitmix64).

    The simulator, workload generators, and nonce derivation all draw from
    seeded instances so that every run is reproducible. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** [split t] is an independent generator derived from [t]'s stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bytes : t -> int -> string
val pick : t -> 'a list -> 'a
val shuffle : t -> 'a list -> 'a list
