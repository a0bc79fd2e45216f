let block_size = 64

(* [pad byte key] is the key, zero-filled to a block, xored with [byte]. *)
let pad byte key =
  let b = Bytes.make block_size (Char.chr byte) in
  for i = 0 to String.length key - 1 do
    Bytes.set b i (Char.chr (Char.code key.[i] lxor byte))
  done;
  Bytes.unsafe_to_string b

let mac ~key msg =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let inner = Sha256.digest_concat [ pad 0x36 key; msg ] in
  Sha256.digest_concat [ pad 0x5c key; inner ]

let verify ~key msg ~mac:expected =
  let actual = mac ~key msg in
  if String.length actual <> String.length expected then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code expected.[i]))
      actual;
    !diff = 0
  end
