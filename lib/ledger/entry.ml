module Codec = Iaccf_util.Codec
module D = Iaccf_crypto.Digest32
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Genesis = Iaccf_types.Genesis

type t =
  | Genesis of Genesis.t
  | Tx of Batch.tx_entry
  | Pre_prepare of Message.pre_prepare
  | Prepare_evidence of {
      pe_view : int;
      pe_seqno : int;
      pe_prepares : Message.prepare list;
    }
  | Nonce_evidence of {
      ne_view : int;
      ne_seqno : int;
      ne_nonces : (int * string) list;
    }
  | View_change_set of Message.view_change list
  | New_view of Message.new_view

let in_merkle_tree = function
  | Tx _ -> false
  | Genesis _ | Pre_prepare _ | Prepare_evidence _ | Nonce_evidence _
  | View_change_set _ | New_view _ ->
      true

let encode w = function
  | Genesis g ->
      Codec.W.u8 w 0;
      Codec.W.bytes w (Genesis.serialize g)
  | Tx tx ->
      Codec.W.u8 w 1;
      Batch.encode_tx_entry w tx
  | Pre_prepare pp ->
      Codec.W.u8 w 2;
      Message.encode_pre_prepare w pp
  | Prepare_evidence { pe_view; pe_seqno; pe_prepares } ->
      Codec.W.u8 w 3;
      Codec.W.u64 w pe_view;
      Codec.W.u64 w pe_seqno;
      Codec.W.list w (Message.encode_prepare w) pe_prepares
  | Nonce_evidence { ne_view; ne_seqno; ne_nonces } ->
      Codec.W.u8 w 4;
      Codec.W.u64 w ne_view;
      Codec.W.u64 w ne_seqno;
      Codec.W.list w
        (fun (id, nonce) ->
          Codec.W.u64 w id;
          Codec.W.bytes w nonce)
        ne_nonces
  | View_change_set vcs ->
      Codec.W.u8 w 5;
      Codec.W.list w (Message.encode_view_change w) vcs
  | New_view nv ->
      Codec.W.u8 w 6;
      Message.encode_new_view w nv

let decode r =
  match Codec.R.u8 r with
  | 0 -> Genesis (Genesis.deserialize (Codec.R.bytes r))
  | 1 -> Tx (Batch.decode_tx_entry r)
  | 2 -> Pre_prepare (Message.decode_pre_prepare r)
  | 3 ->
      let pe_view = Codec.R.u64 r in
      let pe_seqno = Codec.R.u64 r in
      let pe_prepares = Codec.R.list r Message.decode_prepare in
      Prepare_evidence { pe_view; pe_seqno; pe_prepares }
  | 4 ->
      let ne_view = Codec.R.u64 r in
      let ne_seqno = Codec.R.u64 r in
      let ne_nonces =
        Codec.R.list r (fun r ->
            let id = Codec.R.u64 r in
            let nonce = Codec.R.bytes r in
            (id, nonce))
      in
      Nonce_evidence { ne_view; ne_seqno; ne_nonces }
  | 5 -> View_change_set (Codec.R.list r Message.decode_view_change)
  | 6 -> New_view (Message.decode_new_view r)
  | _ -> raise (Codec.Decode_error "invalid ledger entry tag")

let serialize t = Codec.encode (fun w -> encode w t)
let deserialize s = Codec.decode s decode
let leaf_of_serialized = D.of_string
let leaf_digest t = leaf_of_serialized (serialize t)
let size_bytes t = String.length (serialize t)

let pp ppf = function
  | Genesis _ -> Format.pp_print_string ppf "genesis"
  | Tx tx -> Format.fprintf ppf "tx{i=%d;%s}" tx.Batch.index tx.Batch.request.Iaccf_types.Request.proc
  | Pre_prepare p -> Message.pp_pre_prepare ppf p
  | Prepare_evidence { pe_seqno; pe_prepares; _ } ->
      Format.fprintf ppf "prepare-evidence{s=%d;n=%d}" pe_seqno (List.length pe_prepares)
  | Nonce_evidence { ne_seqno; ne_nonces; _ } ->
      Format.fprintf ppf "nonce-evidence{s=%d;n=%d}" ne_seqno (List.length ne_nonces)
  | View_change_set vcs -> Format.fprintf ppf "view-change-set{n=%d}" (List.length vcs)
  | New_view nv -> Format.fprintf ppf "new-view{v=%d}" nv.Message.nv_view

type item =
  | Batch of { evidence : t list; pp : Message.pre_prepare; txs : Batch.tx_entry list }
  | Protocol of t
  | Malformed of string

let batches entries =
  let close acc = function
    | None -> acc
    | Some (evidence, pp, txs_rev) -> Batch { evidence; pp; txs = List.rev txs_rev } :: acc
  in
  let rec go acc evidence open_ = function
    | [] -> List.rev (close acc open_)
    | Tx tx :: rest -> (
        match open_ with
        | Some (ev, pp, txs_rev) -> go acc evidence (Some (ev, pp, tx :: txs_rev)) rest
        | None -> List.rev (Malformed "transaction entry outside a batch" :: acc))
    | Pre_prepare pp :: rest ->
        go (close acc open_) [] (Some (List.rev evidence, pp, [])) rest
    | ((Prepare_evidence _ | Nonce_evidence _) as e) :: rest ->
        go (close acc open_) (e :: evidence) None rest
    | ((View_change_set _ | New_view _) as e) :: rest ->
        go (Protocol e :: close acc open_) evidence None rest
    | Genesis _ :: _ -> List.rev (Malformed "genesis entry inside a suffix" :: acc)
  in
  go [] [] None entries
