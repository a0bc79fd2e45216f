(** On-disk frame format for durable ledger entries.

    Every entry is persisted as [u32 length | u32 CRC32(payload) | payload]
    (big-endian, matching {!Iaccf_util.Codec}). The checksum lets recovery
    distinguish a torn tail write from a complete frame, and the explicit
    length lets a scan walk a segment without decoding payloads. *)

val header_bytes : int
(** 8: the fixed [length | crc] prefix. *)

val encode : string -> string
(** Frame a payload for appending to a segment. *)

type scan_result =
  | Frame of { payload : string; next : int }
      (** A complete, checksum-valid frame; [next] is the offset just past it. *)
  | Torn of { reason : string }
      (** The bytes at this offset cannot be a complete valid frame. *)
  | End_of_input

val scan : string -> pos:int -> scan_result
(** Examine the bytes of a segment at [pos]. [Torn] covers short headers,
    short payloads, implausible lengths, and checksum mismatches alike —
    recovery truncates the segment at the first torn offset. *)
