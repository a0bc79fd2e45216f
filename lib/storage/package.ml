module Entry = Iaccf_ledger.Entry
module Ledger = Iaccf_ledger.Ledger
module Checkpoint = Iaccf_kv.Checkpoint
module Codec = Iaccf_util.Codec
module Crc32 = Iaccf_util.Crc32
module D = Iaccf_crypto.Digest32

exception Package_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Package_error s)) fmt

type t = {
  pkg_entries : Entry.t list;
  pkg_checkpoint : Checkpoint.t option;
  pkg_receipts : string list;
  pkg_m_root : D.t;
  pkg_m_size : int;
  pkg_ledger : Ledger.t option;
}

let magic = "IAPKG1\n"
let version = 1

let of_ledger ?checkpoint ?(receipts = []) ledger =
  {
    pkg_entries = List.map snd (Ledger.entries ledger ());
    pkg_checkpoint = checkpoint;
    pkg_receipts = receipts;
    pkg_m_root = Ledger.m_root ledger;
    pkg_m_size = Ledger.m_size ledger;
    pkg_ledger = None;
  }

let of_entries ?checkpoint ?(receipts = []) entries =
  let ledger = Ledger.of_entries entries in
  {
    pkg_entries = entries;
    pkg_checkpoint = checkpoint;
    pkg_receipts = receipts;
    pkg_m_root = Ledger.m_root ledger;
    pkg_m_size = Ledger.m_size ledger;
    pkg_ledger = Some ledger;
  }

let to_ledger t =
  match t.pkg_ledger with Some ledger -> ledger | None -> Ledger.of_entries t.pkg_entries

let genesis t =
  match t.pkg_entries with
  | Entry.Genesis g :: _ -> g
  | _ -> fail "package does not start with a genesis entry"

let serialize t =
  let body =
    Codec.encode (fun w ->
        Codec.W.u8 w version;
        Codec.W.list w (fun e -> Codec.W.bytes w (Entry.serialize e)) t.pkg_entries;
        Codec.W.option w
          (fun cp -> Codec.W.bytes w (Checkpoint.serialize cp))
          t.pkg_checkpoint;
        Codec.W.list w (Codec.W.bytes w) t.pkg_receipts;
        Codec.W.raw w (D.to_raw t.pkg_m_root);
        Codec.W.u64 w t.pkg_m_size)
  in
  Codec.encode (fun w ->
      Codec.W.raw w magic;
      Codec.W.u32 w (Crc32.digest body);
      Codec.W.raw w body)

let deserialize s =
  let mlen = String.length magic in
  let body = mlen + 4 in
  if String.length s < body then fail "package too short";
  if not (String.starts_with ~prefix:magic s) then fail "bad package magic";
  let crc = Int32.to_int (String.get_int32_be s mlen) land 0xFFFFFFFF in
  if Crc32.digest_sub s ~pos:body ~len:(String.length s - body) <> crc then
    fail "corrupt package: package checksum mismatch";
  let t =
    try
      Codec.decode ~pos:body s (fun r ->
          let v = Codec.R.u8 r in
          if v <> version then raise (Codec.Decode_error "unsupported package version");
          let ledger =
            match Ledger.of_serialized (Codec.R.list r Codec.R.bytes) with
            | ledger -> ledger
            | exception Invalid_argument _ -> fail "package does not start with a genesis entry"
          in
          let pkg_checkpoint =
            Codec.R.option r Codec.R.bytes |> Option.map Checkpoint.deserialize
          in
          let pkg_receipts = Codec.R.list r Codec.R.bytes in
          let pkg_m_root = D.of_raw (Codec.R.raw r D.size) in
          let pkg_m_size = Codec.R.u64 r in
          {
            pkg_entries = List.map snd (Ledger.entries ledger ());
            pkg_checkpoint;
            pkg_receipts;
            pkg_m_root;
            pkg_m_size;
            pkg_ledger = Some ledger;
          })
    with Codec.Decode_error m -> fail "corrupt package: %s" m
  in
  (* The embedded root is the package's self-authenticating claim: the
     entries must reproduce it, or the bundle is rejected outright. *)
  let ledger = to_ledger t in
  if Ledger.m_size ledger <> t.pkg_m_size then fail "package tree size mismatch";
  if not (D.equal (Ledger.m_root ledger) t.pkg_m_root) then
    fail "package entries do not reproduce the embedded Merkle root";
  t

(* Crash-atomic: a crash mid-export must never leave a truncated package
   at the final name. *)
let write_file path t = Disk.write_atomic path (serialize t)

let read_file path =
  match Disk.read_file path with
  | s -> deserialize s
  | exception Sys_error m -> fail "cannot read package: %s" m
