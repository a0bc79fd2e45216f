(** Incremental CRC-framed message stream, reusing the storage frame
    layout ([u32 length | u32 CRC32 | payload], big-endian).

    Unlike the segment scanner, a stream decoder must distinguish "short
    read, wait for more bytes" from "corrupt": after a checksum mismatch
    or an implausible length the frame boundaries are unrecoverable and
    the connection must be dropped. *)

val max_payload_bytes : int
(** 16 MiB: protocol messages, not bulk segments. *)

val encode : string -> string
(** Frame a payload for transmission (identical bytes to
    {!Iaccf_storage.Frame.encode}). *)

type t
(** Per-connection receive state. *)

val create : unit -> t

val feed : t -> string -> unit
(** Append bytes read off the socket. *)

val next : t -> [ `Frame of string | `Need_more | `Corrupt of string ]
(** Extract the next complete frame. After [`Corrupt] the decoder state
    is meaningless: close the connection. *)
