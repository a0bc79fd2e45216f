(* Reflected CRC-32 (IEEE), slicing-by-8 (Kounavis and Berry): eight
   256-entry tables, where table k advances a byte's contribution past k
   further zero bytes, fold eight input bytes per step with eight
   lookups instead of one lookup per byte. OCaml ints are 63-bit on every
   platform we target, so the 32-bit arithmetic fits natively. *)

(* [tables.(k * 256 + b)]: table 0 is the classic byte-at-a-time table. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
       done
     done;
     t)

let u32_le s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let t = Lazy.force tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor u32_le s !i and hi = u32_le s (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := t.((!c lxor Char.code s.[j]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest_sub s ~pos ~len = update 0 s ~pos ~len
let digest s = digest_sub s ~pos:0 ~len:(String.length s)
