module Codec = Iaccf_util.Codec
module Bitmap = Iaccf_util.Bitmap
module Sigcheck = Iaccf_crypto.Sigcheck
module D = Iaccf_crypto.Digest32

type pre_prepare = {
  view : int;
  seqno : int;
  m_root : D.t;
  g_root : D.t;
  nonce_com : D.t;
  ev_bitmap : Bitmap.t;
  gov_index : int;
  cp_digest : D.t;
  kind : Batch.kind;
  primary : int;
  signature : string;
}

type prepare = {
  p_view : int;
  p_seqno : int;
  p_replica : int;
  p_nonce_com : D.t;
  p_pp_hash : D.t;
  p_signature : string;
}

type commit = { c_view : int; c_seqno : int; c_replica : int; c_nonce : string }

type reply = {
  r_view : int;
  r_seqno : int;
  r_replica : int;
  r_signature : string;
  r_nonce : string;
}

type replyx = {
  x_pp : pre_prepare;
  x_tx : Batch.tx_entry;
  x_leaf_index : int;
  x_batch_size : int;
  x_path : D.t list;
}

type view_change = {
  vc_view : int;
  vc_replica : int;
  vc_last_prepared : pre_prepare list;
  vc_signature : string;
}

type new_view = {
  nv_view : int;
  nv_m_root : D.t;
  nv_vc_bitmap : Bitmap.t;
  nv_vc_hash : D.t;
  nv_primary : int;
  nv_signature : string;
}

let pre_prepare_payload ~view ~seqno ~m_root ~g_root ~nonce_com ~ev_bitmap
    ~gov_index ~cp_digest ~kind ~primary =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "iaccf-preprepare";
         Codec.W.u64 w view;
         Codec.W.u64 w seqno;
         Codec.W.raw w (D.to_raw m_root);
         Codec.W.raw w (D.to_raw g_root);
         Codec.W.raw w (D.to_raw nonce_com);
         Codec.W.raw w (Bitmap.encode ev_bitmap);
         Codec.W.u64 w gov_index;
         Codec.W.raw w (D.to_raw cp_digest);
         Batch.encode_kind w kind;
         Codec.W.u64 w primary))

let pp_hash (pp : pre_prepare) =
  pre_prepare_payload ~view:pp.view ~seqno:pp.seqno ~m_root:pp.m_root
    ~g_root:pp.g_root ~nonce_com:pp.nonce_com ~ev_bitmap:pp.ev_bitmap
    ~gov_index:pp.gov_index ~cp_digest:pp.cp_digest ~kind:pp.kind
    ~primary:pp.primary

let prepare_payload ~view ~seqno ~replica ~nonce_com ~pp_hash =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "iaccf-prepare";
         Codec.W.u64 w view;
         Codec.W.u64 w seqno;
         Codec.W.u64 w replica;
         Codec.W.raw w (D.to_raw nonce_com);
         Codec.W.raw w (D.to_raw pp_hash)))

let view_change_payload ~view ~replica ~last_prepared =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "iaccf-viewchange";
         Codec.W.u64 w view;
         Codec.W.u64 w replica;
         Codec.W.list w
           (fun pp -> Codec.W.raw w (D.to_raw (pp_hash pp)))
           last_prepared))

let new_view_payload ~view ~m_root ~vc_bitmap ~vc_hash ~primary =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.raw w "iaccf-newview";
         Codec.W.u64 w view;
         Codec.W.raw w (D.to_raw m_root);
         Codec.W.raw w (Bitmap.encode vc_bitmap);
         Codec.W.raw w (D.to_raw vc_hash);
         Codec.W.u64 w primary))

type check = replica:int -> D.t -> signature:string -> bool

let sigcheck sigs config ~replica d ~signature =
  match Config.replica_pk config replica with
  | None -> false
  | Some pk -> Sigcheck.verify sigs pk (D.to_raw d) ~signature

let verify_pre_prepare ~check ?pph config (pp : pre_prepare) =
  pp.primary = Config.primary_of_view config pp.view
  &&
  let pph = match pph with Some h -> h | None -> pp_hash pp in
  check ~replica:pp.primary pph ~signature:pp.signature

let verify_prepare ~check (p : prepare) =
  check ~replica:p.p_replica
    (prepare_payload ~view:p.p_view ~seqno:p.p_seqno ~replica:p.p_replica
       ~nonce_com:p.p_nonce_com ~pp_hash:p.p_pp_hash)
    ~signature:p.p_signature

let verify_view_change ~check (vc : view_change) =
  check ~replica:vc.vc_replica
    (view_change_payload ~view:vc.vc_view ~replica:vc.vc_replica
       ~last_prepared:vc.vc_last_prepared)
    ~signature:vc.vc_signature

let verify_new_view ~check config (nv : new_view) =
  nv.nv_primary = Config.primary_of_view config nv.nv_view
  && check ~replica:nv.nv_primary
       (new_view_payload ~view:nv.nv_view ~m_root:nv.nv_m_root ~vc_bitmap:nv.nv_vc_bitmap
          ~vc_hash:nv.nv_vc_hash ~primary:nv.nv_primary)
       ~signature:nv.nv_signature

let encode_pre_prepare w (pp : pre_prepare) =
  Codec.W.u64 w pp.view;
  Codec.W.u64 w pp.seqno;
  Codec.W.raw w (D.to_raw pp.m_root);
  Codec.W.raw w (D.to_raw pp.g_root);
  Codec.W.raw w (D.to_raw pp.nonce_com);
  Codec.W.raw w (Bitmap.encode pp.ev_bitmap);
  Codec.W.u64 w pp.gov_index;
  Codec.W.raw w (D.to_raw pp.cp_digest);
  Batch.encode_kind w pp.kind;
  Codec.W.u64 w pp.primary;
  Codec.W.bytes w pp.signature

let decode_pre_prepare r : pre_prepare =
  let view = Codec.R.u64 r in
  let seqno = Codec.R.u64 r in
  let m_root = D.of_raw (Codec.R.raw r 32) in
  let g_root = D.of_raw (Codec.R.raw r 32) in
  let nonce_com = D.of_raw (Codec.R.raw r 32) in
  let ev_bitmap = Bitmap.decode (Codec.R.raw r 8) in
  let gov_index = Codec.R.u64 r in
  let cp_digest = D.of_raw (Codec.R.raw r 32) in
  let kind = Batch.decode_kind r in
  let primary = Codec.R.u64 r in
  let signature = Codec.R.bytes r in
  {
    view;
    seqno;
    m_root;
    g_root;
    nonce_com;
    ev_bitmap;
    gov_index;
    cp_digest;
    kind;
    primary;
    signature;
  }

let encode_prepare w (p : prepare) =
  Codec.W.u64 w p.p_view;
  Codec.W.u64 w p.p_seqno;
  Codec.W.u64 w p.p_replica;
  Codec.W.raw w (D.to_raw p.p_nonce_com);
  Codec.W.raw w (D.to_raw p.p_pp_hash);
  Codec.W.bytes w p.p_signature

let decode_prepare r : prepare =
  let p_view = Codec.R.u64 r in
  let p_seqno = Codec.R.u64 r in
  let p_replica = Codec.R.u64 r in
  let p_nonce_com = D.of_raw (Codec.R.raw r 32) in
  let p_pp_hash = D.of_raw (Codec.R.raw r 32) in
  let p_signature = Codec.R.bytes r in
  { p_view; p_seqno; p_replica; p_nonce_com; p_pp_hash; p_signature }

let encode_view_change w (vc : view_change) =
  Codec.W.u64 w vc.vc_view;
  Codec.W.u64 w vc.vc_replica;
  Codec.W.list w (encode_pre_prepare w) vc.vc_last_prepared;
  Codec.W.bytes w vc.vc_signature

let decode_view_change r : view_change =
  let vc_view = Codec.R.u64 r in
  let vc_replica = Codec.R.u64 r in
  let vc_last_prepared = Codec.R.list r decode_pre_prepare in
  let vc_signature = Codec.R.bytes r in
  { vc_view; vc_replica; vc_last_prepared; vc_signature }

let encode_new_view w (nv : new_view) =
  Codec.W.u64 w nv.nv_view;
  Codec.W.raw w (D.to_raw nv.nv_m_root);
  Codec.W.raw w (Bitmap.encode nv.nv_vc_bitmap);
  Codec.W.raw w (D.to_raw nv.nv_vc_hash);
  Codec.W.u64 w nv.nv_primary;
  Codec.W.bytes w nv.nv_signature

let decode_new_view r : new_view =
  let nv_view = Codec.R.u64 r in
  let nv_m_root = D.of_raw (Codec.R.raw r 32) in
  let nv_vc_bitmap = Bitmap.decode (Codec.R.raw r 8) in
  let nv_vc_hash = D.of_raw (Codec.R.raw r 32) in
  let nv_primary = Codec.R.u64 r in
  let nv_signature = Codec.R.bytes r in
  { nv_view; nv_m_root; nv_vc_bitmap; nv_vc_hash; nv_primary; nv_signature }

let encode_commit w (c : commit) =
  Codec.W.u64 w c.c_view;
  Codec.W.u64 w c.c_seqno;
  Codec.W.u64 w c.c_replica;
  Codec.W.bytes w c.c_nonce

let decode_commit r : commit =
  let c_view = Codec.R.u64 r in
  let c_seqno = Codec.R.u64 r in
  let c_replica = Codec.R.u64 r in
  let c_nonce = Codec.R.bytes r in
  { c_view; c_seqno; c_replica; c_nonce }

let encode_reply w (rp : reply) =
  Codec.W.u64 w rp.r_view;
  Codec.W.u64 w rp.r_seqno;
  Codec.W.u64 w rp.r_replica;
  Codec.W.bytes w rp.r_signature;
  Codec.W.bytes w rp.r_nonce

let decode_reply r : reply =
  let r_view = Codec.R.u64 r in
  let r_seqno = Codec.R.u64 r in
  let r_replica = Codec.R.u64 r in
  let r_signature = Codec.R.bytes r in
  let r_nonce = Codec.R.bytes r in
  { r_view; r_seqno; r_replica; r_signature; r_nonce }

let encode_replyx w (x : replyx) =
  encode_pre_prepare w x.x_pp;
  Batch.encode_tx_entry w x.x_tx;
  Codec.W.u64 w x.x_leaf_index;
  Codec.W.u64 w x.x_batch_size;
  Codec.W.list w (fun d -> Codec.W.raw w (D.to_raw d)) x.x_path

let decode_replyx r : replyx =
  let x_pp = decode_pre_prepare r in
  let x_tx = Batch.decode_tx_entry r in
  let x_leaf_index = Codec.R.u64 r in
  let x_batch_size = Codec.R.u64 r in
  let x_path = Codec.R.list r (fun r -> D.of_raw (Codec.R.raw r 32)) in
  { x_pp; x_tx; x_leaf_index; x_batch_size; x_path }

let serialize_pre_prepare pp = Codec.encode (fun w -> encode_pre_prepare w pp)

let pre_prepare_equal a b =
  String.equal (serialize_pre_prepare a) (serialize_pre_prepare b)

let pp_pre_prepare ppf (pp : pre_prepare) =
  Format.fprintf ppf "pp{v=%d;s=%d;kind=%a;G=%a}" pp.view pp.seqno Batch.pp_kind
    pp.kind D.pp pp.g_root
