module Checkpoint = Iaccf_kv.Checkpoint
module Frame = Iaccf_storage.Frame
module Disk = Iaccf_storage.Disk
module D = Iaccf_crypto.Digest32

let name cp_seqno = Printf.sprintf "snapshot-%016d.iaccf" cp_seqno
let path ~dir cp_seqno = Filename.concat dir (name cp_seqno)

let parse_name n =
  match String.length n = 31 && String.sub n 0 9 = "snapshot-"
        && Filename.check_suffix n ".iaccf"
  with
  | true -> int_of_string_opt (String.sub n 9 16)
  | false -> None
  | exception _ -> None

(* Crash-atomic: a torn file never appears at the final name. The CRC
   frame would catch one, but then [load] never has to reason about
   partial snapshots at all. *)
let write ~dir cp =
  let data = Frame.encode (Checkpoint.serialize cp) in
  Disk.write_atomic (path ~dir cp.Checkpoint.seqno) data;
  String.length data

(* The one reader: the CRC frame, the decode, the file name's seqno and
   the trusted digest must all hold, or the file counts as absent. *)
let load ~dir cp_seqno ~digest =
  match Disk.read_file (path ~dir cp_seqno) with
  | exception Sys_error _ -> None
  | raw -> (
      match Frame.scan raw ~pos:0 with
      | Frame.Frame { payload; next } when next = String.length raw -> (
          match Checkpoint.deserialize payload with
          | cp when cp.Checkpoint.seqno = cp_seqno && D.equal (Checkpoint.digest cp) digest ->
              Some (cp, payload)
          | _ -> None
          | exception Iaccf_util.Codec.Decode_error _ -> None)
      | Frame.Frame _ | Frame.Torn _ | Frame.End_of_input -> None)

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

let newest ~dir ~trusted =
  List.find_map
    (fun cp_seqno ->
      Option.bind (trusted cp_seqno) (fun digest ->
          Option.map (fun (cp, _) -> (cp, digest)) (load ~dir cp_seqno ~digest)))
    (list ~dir)
