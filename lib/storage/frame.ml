module Codec = Iaccf_util.Codec
module Crc32 = Iaccf_util.Crc32

let header_bytes = 8
(* A larger length field is corruption to the scanner. *)
let max_payload_bytes = 64 * 1024 * 1024

let encode payload =
  Codec.encode (fun w ->
      Codec.W.u32 w (String.length payload);
      Codec.W.u32 w (Crc32.digest payload);
      Codec.W.raw w payload)

type scan_result =
  | Frame of { payload : string; next : int }
  | Torn of { reason : string }
  | End_of_input

let read_u32 s pos =
  let b i = Char.code s.[pos + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let scan s ~pos =
  let total = String.length s in
  if pos < 0 || pos > total then invalid_arg "Frame.scan: position out of range";
  if pos = total then End_of_input
  else if total - pos < header_bytes then Torn { reason = "short header" }
  else begin
    let len = read_u32 s pos in
    let crc = read_u32 s (pos + 4) in
    if len > max_payload_bytes then Torn { reason = "implausible frame length" }
    else if total - pos - header_bytes < len then Torn { reason = "short payload" }
    else if Crc32.digest_sub s ~pos:(pos + header_bytes) ~len <> crc then
      Torn { reason = "checksum mismatch" }
    else
      Frame
        {
          payload = String.sub s (pos + header_bytes) len;
          next = pos + header_bytes + len;
        }
  end
