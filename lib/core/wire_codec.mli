(** Binary codec for {!Wire.t}: one tag byte per variant, payloads in the
    canonical {!Iaccf_util.Codec} encoding. This is what the socket
    transport puts on the wire (inside a CRC frame); the simulator passes
    [Wire.t] values in memory and never pays for it.

    Decoders raise {!Iaccf_util.Codec.Decode_error} on malformed input —
    they never crash or over-read. Tag numbers are wire format: append
    variants, never renumber. *)

val serialize : Wire.t -> string

val deserialize : string -> Wire.t
(** @raise Iaccf_util.Codec.Decode_error on malformed or trailing bytes. *)

val envelope_version : int

val encode_envelope : src:int -> dst:int -> Wire.t -> string
(** The process-to-process frame payload: version, simulator-network
    source and destination addresses, then the message. *)

val decode_envelope : string -> int * int * Wire.t
(** [(src, dst, msg)].
    @raise Iaccf_util.Codec.Decode_error on malformed input or a version
    mismatch. *)
