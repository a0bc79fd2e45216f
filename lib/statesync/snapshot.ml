module Checkpoint = Iaccf_kv.Checkpoint
module Frame = Iaccf_storage.Frame

let name cp_seqno = Printf.sprintf "snapshot-%016d.iaccf" cp_seqno
let path ~dir cp_seqno = Filename.concat dir (name cp_seqno)

let parse_name n =
  match String.length n = 31 && String.sub n 0 9 = "snapshot-"
        && Filename.check_suffix n ".iaccf"
  with
  | true -> int_of_string_opt (String.sub n 9 16)
  | false -> None
  | exception _ -> None

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* tmp + fsync + rename: a crash mid-write must never leave a torn file at
   the final name — the CRC frame would catch it, but a clean rename means
   [load] never has to reason about partial snapshots at all. *)
let write ~dir cp =
  let data = Frame.encode (Checkpoint.serialize cp) in
  let final = path ~dir cp.Checkpoint.seqno in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd data;
      Unix.fsync fd);
  Unix.rename tmp final;
  fsync_dir dir;
  String.length data

let read_file path =
  match open_in_bin path with
  | ic ->
      Some
        (Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* The CRC-checked serialized checkpoint, or None on any damage. *)
let load_serialized ~dir cp_seqno =
  match read_file (path ~dir cp_seqno) with
  | None -> None
  | Some raw -> (
      match Frame.scan raw ~pos:0 with
      | Frame.Frame { payload; next } when next = String.length raw -> Some payload
      | Frame.Frame _ | Frame.Torn _ | Frame.End_of_input -> None)

let load ~dir cp_seqno =
  match load_serialized ~dir cp_seqno with
  | None -> None
  | Some payload -> (
      match Checkpoint.deserialize payload with
      | cp when cp.Checkpoint.seqno = cp_seqno -> Some cp
      | _ -> None
      | exception Iaccf_util.Codec.Decode_error _ -> None)

let list ~dir =
  match Sys.readdir dir with
  | files ->
      Array.to_list files
      |> List.filter_map parse_name
      |> List.sort (fun a b -> compare b a)
  | exception Sys_error _ -> []

let retain ~dir ~keep =
  List.iteri
    (fun i s -> if i >= keep then try Sys.remove (path ~dir s) with Sys_error _ -> ())
    (list ~dir)

let sealing_batch ~cp_seqno entries =
  List.find_map
    (function
      | Iaccf_ledger.Entry.Pre_prepare pp -> (
          match pp.Iaccf_types.Message.kind with
          | Iaccf_types.Batch.Checkpoint { cp_seqno = cs; cp_digest } when cs = cp_seqno ->
              Some (pp, cp_digest)
          | _ -> None)
      | _ -> None)
    entries

let newest_sealed ~dir ~verify_pp entries =
  List.find_map
    (fun cp_seqno ->
      match (load ~dir cp_seqno, sealing_batch ~cp_seqno entries) with
      | Some cp, Some (pp, sealed) ->
          let digest = Checkpoint.digest cp in
          if Iaccf_crypto.Digest32.equal digest sealed && verify_pp pp then Some (cp, digest)
          else None
      | _ -> None)
    (list ~dir)
