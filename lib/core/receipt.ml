module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Config = Iaccf_types.Config
module Request = Iaccf_types.Request
module D = Iaccf_crypto.Digest32
module Nonce = Iaccf_crypto.Nonce
module Bitmap = Iaccf_util.Bitmap
module Codec = Iaccf_util.Codec
module Tree = Iaccf_merkle.Tree

type subject =
  | Tx_subject of {
      tx : Batch.tx_entry;
      leaf_index : int;
      batch_size : int;
      path : D.t list;
    }
  | Batch_subject

type t = {
  pp : Message.pre_prepare;
  prep_bitmap : Bitmap.t;
  prepare_sigs : string list;
  nonces : string list;
  subject : subject;
}

let make pp backups subject =
  let backups = List.sort (fun (a, _, _) (b, _, _) -> compare a b) backups in
  {
    pp;
    prep_bitmap = Bitmap.of_list (List.map (fun (r, _, _) -> r) backups);
    prepare_sigs = List.map (fun (_, s, _) -> s) backups;
    nonces = List.map (fun (_, _, n) -> n) backups;
    subject;
  }

let g_path ?g_tree txs =
  let tree =
    match g_tree with Some tree -> Lazy.from_val tree | None -> lazy (Batch.g_tree txs)
  in
  fun i -> Tree.path (Lazy.force tree) i

let tx_subject txs =
  let path = g_path txs and batch_size = List.length txs in
  fun i -> Tx_subject { tx = List.nth txs i; leaf_index = i; batch_size; path = path i }

let replyxs ?g_tree pp txs pick =
  let path = g_path ?g_tree txs and size = List.length txs in
  List.concat
    (List.mapi
       (fun i tx ->
         if pick tx then
           [ { Message.x_pp = pp; x_tx = tx; x_leaf_index = i; x_batch_size = size;
               x_path = path i } ]
         else [])
       txs)

let of_replyx (x : Message.replyx) backups =
  make x.Message.x_pp backups
    (Tx_subject
       { tx = x.Message.x_tx; leaf_index = x.Message.x_leaf_index;
         batch_size = x.Message.x_batch_size; path = x.Message.x_path })

let seqno t = t.pp.Message.seqno
let view t = t.pp.Message.view

let index t =
  match t.subject with
  | Tx_subject { tx; _ } -> Some tx.Batch.index
  | Batch_subject -> None

let signers t = Bitmap.add t.pp.Message.primary t.prep_bitmap

let reconstruct_prepare t ~pph ~replica ~nonce ~signature =
  {
    Message.p_view = t.pp.Message.view;
    p_seqno = t.pp.Message.seqno;
    p_replica = replica;
    p_nonce_com = D.of_string nonce;
    p_pp_hash = pph;
    p_signature = signature;
  }

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e
let guard cond msg = if cond then Ok () else Error msg

let verify ~config ~service t =
  let pp = t.pp in
  let quorum = Config.quorum config in
  let backups = Bitmap.to_list t.prep_bitmap in
  let* () =
    guard
      (List.length backups = List.length t.prepare_sigs
      && List.length backups = List.length t.nonces)
      "bitmap and signature list lengths disagree"
  in
  let* () = guard (not (Bitmap.mem pp.Message.primary t.prep_bitmap)) "primary listed as backup" in
  let* () =
    guard (List.for_all (fun r -> Config.replica config r <> None) backups) "unknown replica id"
  in
  let* () = guard (1 + List.length backups >= quorum) "fewer than N-f signers" in
  (* One hash of the pre-prepare serves its signature and every backup's
     prepare. *)
  let pph = Message.pp_hash pp in
  let* () = guard (Message.verify_pre_prepare ~pph config pp) "invalid pre-prepare signature" in
  let* () =
    guard
      (List.for_all (fun k -> Nonce.of_revealed k <> None) t.nonces)
      "revealed nonce of the wrong size"
  in
  let rec check_prepares rs sigs nonces =
    match (rs, sigs, nonces) with
    | [], [], [] -> Ok ()
    | r :: rs, s :: sigs, k :: nonces ->
        let prepare = reconstruct_prepare t ~pph ~replica:r ~nonce:k ~signature:s in
        if Message.verify_prepare config prepare then check_prepares rs sigs nonces
        else Error (Printf.sprintf "invalid prepare signature from replica %d" r)
    | _ -> Error "length mismatch"
  in
  let* () = check_prepares backups t.prepare_sigs t.nonces in
  match t.subject with
  | Batch_subject ->
      (* Special batches carry no transactions; G is the empty tree. *)
      guard (D.equal pp.Message.g_root Tree.empty_root) "non-empty batch without subject"
  | Tx_subject { tx; leaf_index; batch_size; path } ->
      let* () =
        guard (Request.verify tx.Batch.request ~service) "invalid client request signature"
      in
      let* () =
        guard (tx.Batch.request.Request.min_index <= tx.Batch.index)
          "executed below its minimum index"
      in
      guard
        (Tree.verify_path ~leaf:(Batch.tx_leaf tx) ~index:leaf_index
           ~size:batch_size ~path ~root:pp.Message.g_root)
        "Merkle path does not reach g_root"

let encode w t =
  Message.encode_pre_prepare w t.pp;
  Codec.W.raw w (Bitmap.encode t.prep_bitmap);
  Codec.W.list w (Codec.W.bytes w) t.prepare_sigs;
  Codec.W.list w (Codec.W.bytes w) t.nonces;
  match t.subject with
  | Batch_subject -> Codec.W.u8 w 0
  | Tx_subject { tx; leaf_index; batch_size; path } ->
      Codec.W.u8 w 1;
      Batch.encode_tx_entry w tx;
      Codec.W.u64 w leaf_index;
      Codec.W.u64 w batch_size;
      Codec.W.list w (fun d -> Codec.W.raw w (D.to_raw d)) path

let decode r =
  let pp = Message.decode_pre_prepare r in
  let prep_bitmap = Bitmap.decode (Codec.R.raw r 8) in
  let prepare_sigs = Codec.R.list r Codec.R.bytes in
  let nonces = Codec.R.list r Codec.R.bytes in
  let subject =
    match Codec.R.u8 r with
    | 0 -> Batch_subject
    | 1 ->
        let tx = Batch.decode_tx_entry r in
        let leaf_index = Codec.R.u64 r in
        let batch_size = Codec.R.u64 r in
        let path = Codec.R.list r (fun r -> D.of_raw (Codec.R.raw r 32)) in
        Tx_subject { tx; leaf_index; batch_size; path }
    | _ -> raise (Codec.Decode_error "invalid receipt subject tag")
  in
  { pp; prep_bitmap; prepare_sigs; nonces; subject }

let serialize t = Codec.encode (fun w -> encode w t)
let deserialize s = Codec.decode s decode
let size_bytes t = String.length (serialize t)
let equal a b = String.equal (serialize a) (serialize b)

let pp_receipt ppf t =
  Format.fprintf ppf "receipt{v=%d;s=%d;i=%s;signers=%a}" (view t) (seqno t)
    (match index t with None -> "-" | Some i -> string_of_int i)
    Bitmap.pp (signers t)
