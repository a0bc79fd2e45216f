(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).

    Frames the durable ledger segments: every persisted entry carries the
    checksum of its payload so that torn or bit-rotted writes are detected
    on recovery rather than decoded into garbage. *)

val digest : string -> int
(** [digest s] is the CRC-32 of [s] as a non-negative int in [0, 2^32). *)

val digest_sub : string -> pos:int -> len:int -> int
(** CRC-32 of the [len] bytes of [s] starting at [pos]. *)
