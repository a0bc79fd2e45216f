module Codec = Iaccf_util.Codec
module D = Iaccf_crypto.Digest32

type kind =
  | Regular
  | Checkpoint of { cp_seqno : int; cp_digest : D.t }
  | End_of_config of { phase : int; committed_root : D.t }
  | Start_of_config of { phase : int }

type tx_result = { output : string; write_set_hash : D.t }
type tx_entry = { request : Request.t; index : int; result : tx_result }

let encode_kind w = function
  | Regular -> Codec.W.u8 w 0
  | Checkpoint { cp_seqno; cp_digest } ->
      Codec.W.u8 w 1;
      Codec.W.u64 w cp_seqno;
      Codec.W.raw w (D.to_raw cp_digest)
  | End_of_config { phase; committed_root } ->
      Codec.W.u8 w 2;
      Codec.W.u64 w phase;
      Codec.W.raw w (D.to_raw committed_root)
  | Start_of_config { phase } ->
      Codec.W.u8 w 3;
      Codec.W.u64 w phase

let decode_kind r =
  match Codec.R.u8 r with
  | 0 -> Regular
  | 1 ->
      let cp_seqno = Codec.R.u64 r in
      let cp_digest = D.of_raw (Codec.R.raw r 32) in
      Checkpoint { cp_seqno; cp_digest }
  | 2 ->
      let phase = Codec.R.u64 r in
      let committed_root = D.of_raw (Codec.R.raw r 32) in
      End_of_config { phase; committed_root }
  | 3 ->
      let phase = Codec.R.u64 r in
      Start_of_config { phase }
  | _ -> raise (Codec.Decode_error "invalid batch kind")

let encode_tx_entry w t =
  Request.encode w t.request;
  Codec.W.u64 w t.index;
  Codec.W.bytes w t.result.output;
  Codec.W.raw w (D.to_raw t.result.write_set_hash)

let decode_tx_entry r =
  let request = Request.decode r in
  let index = Codec.R.u64 r in
  let output = Codec.R.bytes r in
  let write_set_hash = D.of_raw (Codec.R.raw r 32) in
  { request; index; result = { output; write_set_hash } }

let serialize_tx_entry t = Codec.encode (fun w -> encode_tx_entry w t)
let tx_leaf t = D.of_string (serialize_tx_entry t)
let placed t = Request.may_execute_at t.request ~index:t.index

let g_tree entries = Iaccf_merkle.Tree.of_leaves (List.map tx_leaf entries)

let g_root entries = Iaccf_merkle.Tree.root (g_tree entries)

let kind_equal a b =
  match (a, b) with
  | Regular, Regular -> true
  | Checkpoint x, Checkpoint y ->
      x.cp_seqno = y.cp_seqno && D.equal x.cp_digest y.cp_digest
  | End_of_config x, End_of_config y ->
      x.phase = y.phase && D.equal x.committed_root y.committed_root
  | Start_of_config x, Start_of_config y -> x.phase = y.phase
  | (Regular | Checkpoint _ | End_of_config _ | Start_of_config _), _ -> false

let pp_kind ppf = function
  | Regular -> Format.pp_print_string ppf "regular"
  | Checkpoint { cp_seqno; _ } -> Format.fprintf ppf "checkpoint@%d" cp_seqno
  | End_of_config { phase; _ } -> Format.fprintf ppf "end-of-config/%d" phase
  | Start_of_config { phase } -> Format.fprintf ppf "start-of-config/%d" phase
