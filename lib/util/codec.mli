(** Canonical binary encoding used for signing payloads and ledger storage.

    All multi-byte integers are big-endian. Variable-length data is
    length-prefixed. The encoding of a value is unique (canonical), which is
    required for signature payloads: two parties encoding the same message
    must obtain the same bytes. *)

(** {1 Writer} *)

module W : sig
  type t

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit

  val u64 : t -> int -> unit
  (** 63-bit non-negative OCaml int encoded on 8 bytes. *)

  val bool : t -> bool -> unit

  val bytes : t -> string -> unit
  (** Length-prefixed (u32) byte string. *)

  val raw : t -> string -> unit
  (** Fixed-width byte string, no length prefix. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** u32 count followed by each element. The element writer is expected to
      write into the same buffer. *)

  val option : t -> ('a -> unit) -> 'a option -> unit
end

(** {1 Reader} *)

exception Decode_error of string

module R : sig
  type t

  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val bool : t -> bool
  val bytes : t -> string
  val raw : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option

end

val encode : (W.t -> unit) -> string
(** [encode f] runs [f] on a fresh writer and returns the bytes. *)

val decode : ?pos:int -> string -> (R.t -> 'a) -> 'a
(** [decode s f] decodes [s] entirely with [f]; with [~pos], the bytes of
    [s] from [pos] on, without copying them.
    @raise Decode_error on malformed or trailing input.
    @raise Invalid_argument if [pos] is outside [0, String.length s]. *)
