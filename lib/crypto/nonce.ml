type t = string

let size = 32
let generate rng = Iaccf_util.Rng.bytes rng size

let derive ~key ~view ~seqno =
  Hmac.mac ~key (Printf.sprintf "nonce:%d:%d" view seqno)

let commit n = Digest32.of_string n
let reveal n = n
let of_revealed s = if String.length s = size then Some s else None
let check ~commitment n = Digest32.equal (commit n) commitment

let opens ~commitment s =
  match of_revealed s with Some n -> check ~commitment n | None -> false
