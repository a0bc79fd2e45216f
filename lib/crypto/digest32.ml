type t = string

let size = 32
let of_string s = Sha256.digest s

let of_raw s =
  if String.length s <> size then invalid_arg "Digest32.of_raw: expected 32 bytes";
  s

let to_raw d = d
let to_hex = Iaccf_util.Hex.encode

let of_hex h =
  let s = Iaccf_util.Hex.decode h in
  of_raw s

let equal = String.equal
let pp ppf d = Format.pp_print_string ppf (String.sub (to_hex d) 0 8)
let pp_full ppf d = Format.pp_print_string ppf (to_hex d)
let zero = String.make size '\x00'
