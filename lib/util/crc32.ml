(* Reflected table-driven CRC-32 (IEEE). OCaml ints are 63-bit on every
   platform we target, so the 32-bit arithmetic fits natively. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* Streaming update: fold further bytes into a running checksum. *)
let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let table = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest_sub s ~pos ~len = update 0 s ~pos ~len
let digest s = digest_sub s ~pos:0 ~len:(String.length s)
