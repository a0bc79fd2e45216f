(** Bounded chunking for snapshot transfer.

    A serialized checkpoint is split into fixed-size chunks for the wire;
    the receiver reassembles them out of order and only then verifies the
    whole against the sealed checkpoint digest — a single tampered or
    misdelivered chunk fails that one check, so the assembler itself stays
    mechanical. *)

val split : chunk_bytes:int -> string -> string list
(** Split into [<= chunk_bytes] pieces; an empty payload yields one empty
    chunk so every transfer has at least one round. *)

val count : chunk_bytes:int -> string -> int
(** Number of chunks [split] would produce.
    @raise Invalid_argument if [chunk_bytes < 1]. *)

val nth : chunk_bytes:int -> string -> int -> string option
(** [List.nth_opt (split ~chunk_bytes data) i], sliced without splitting
    the rest. *)

type asm

val create : total:int -> bytes:int -> asm
(** Assembler for [total] chunks of a [bytes]-long payload.
    @raise Invalid_argument if [total < 1] or [bytes < 0]. *)

val add : asm -> index:int -> string -> [ `Added | `Duplicate | `Invalid ]
(** Record one chunk. [`Invalid] covers out-of-range indices and data that
    would overflow the advertised payload size. *)

val complete : asm -> bool
val total : asm -> int

val missing : asm -> int list
(** Indices not yet received, ascending (retry / stall re-request set). *)

val assembled : asm -> string option
(** The reassembled payload once complete and exactly the advertised size;
    [None] otherwise. *)
