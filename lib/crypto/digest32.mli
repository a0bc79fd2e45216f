(** 32-byte SHA-256 digests as first-class values. *)

type t = private string

val size : int
val of_string : string -> t
(** Hash arbitrary bytes into a digest. *)

val of_raw : string -> t
(** Adopt an existing 32-byte digest. @raise Invalid_argument otherwise. *)

val to_raw : t -> string
val to_hex : t -> string
val of_hex : string -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints the first 8 hex characters, enough to identify values in traces. *)

val pp_full : Format.formatter -> t -> unit

val zero : t
(** The all-zero digest, used as a placeholder (e.g. genesis parent). *)
