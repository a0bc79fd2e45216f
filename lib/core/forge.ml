module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Message = Iaccf_types.Message
module Schnorr = Iaccf_crypto.Schnorr
module Nonce = Iaccf_crypto.Nonce
module D = Iaccf_crypto.Digest32
module Bitmap = Iaccf_util.Bitmap
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Store = Iaccf_kv.Store
module Checkpoint = Iaccf_kv.Checkpoint

type forged_batch = { fb_pp : Message.pre_prepare; fb_txs : Batch.tx_entry list }

type t = {
  genesis : Genesis.t;
  cfg : Config.t;
  sks : (int * Schnorr.secret_key) list; (* ascending by id *)
  app : App.t;
  rule : Schedule.rule; (* the replicas' checkpoint cadence *)
  store : Store.t;
  led : Ledger.t;
  batches : (int, forged_batch) Hashtbl.t;
  votes : Votes.t; (* every colluder's prepare and nonce for each batch *)
  checkpoints : (int, Checkpoint.t) Hashtbl.t;
  mutable seqno : int; (* next *)
  mutable fview : int;
  mutable gov_index : int;
  mutable current_dc : D.t;
  mutable latest_cp : int;
}

let quorum t = Config.quorum t.cfg
let primary_id t = Config.primary_of_view t.cfg t.fview

let sk_of t id =
  match List.assoc_opt id t.sks with
  | Some sk -> sk
  | None ->
      invalid_arg
        (Printf.sprintf "Forge: replica %d is not among the colluders" id)

(* A quorum subset of keys suffices: the forged histories are signed only
   by the colluders, so audits of them can never blame an outsider. The
   current view's primary must be a colluder (it signs every pre-prepare
   and new-view). *)
let create ~genesis ~sks ~app ~pipeline ~checkpoint_interval =
  let cfg = genesis.Genesis.initial_config in
  let sks = List.sort (fun (a, _) (b, _) -> compare a b) sks in
  if List.length sks < Config.quorum cfg then
    invalid_arg "Forge.create: need at least a quorum of keys";
  if
    List.exists
      (fun (id, _) ->
        not
          (List.exists
             (fun (r : Config.replica_info) -> r.Config.replica_id = id)
             cfg.Config.replicas))
      sks
  then invalid_arg "Forge.create: key for a replica outside the configuration";
  if not (List.mem_assoc (Config.primary_of_view cfg 0) sks) then
    invalid_arg "Forge.create: the view-0 primary must be a colluder";
  let store = Store.create () in
  let cp0 = Checkpoint.make ~seqno:0 (Store.map store) in
  let t =
    {
      genesis;
      cfg;
      sks;
      app;
      rule = { Schedule.pipeline; interval = checkpoint_interval; checkpoints = true };
      store;
      led = Ledger.create genesis;
      batches = Hashtbl.create 32;
      votes = Votes.create ~nonce_key:"forge";
      checkpoints = Hashtbl.create 8;
      seqno = 1;
      fview = 0;
      gov_index = 0;
      current_dc = Checkpoint.digest cp0;
      latest_cp = 0;
    }
  in
  Hashtbl.replace t.checkpoints 0 cp0;
  t

let checkpoint_at t s = Hashtbl.find_opt t.checkpoints s

let nonce_for t id ~seqno =
  Nonce.derive ~key:(Printf.sprintf "forge-%d" id) ~view:t.fview ~seqno

(* The colluders all vote and are at least a quorum, so the one rule
   always finds evidence and receipt backups. *)
let evidence_for t s_past =
  if s_past < 1 then ([], [], Bitmap.empty)
  else
    Option.get
      (Votes.evidence_for t.votes (Hashtbl.find t.batches s_past).fb_pp ~quorum:(quorum t))

(* A complete ledger package (Appx. B.1): the ledger plus the message-box
   evidence for the tail batches whose evidence no later pre-prepare has
   recorded yet. *)
let ledger t =
  let entries = List.map snd (Ledger.entries t.led ()) in
  let tail = ref [] in
  for s = max 1 (t.seqno - t.rule.pipeline) to t.seqno - 1 do
    match Hashtbl.find_opt t.batches s with
    | None -> ()
    | Some fb ->
        let prepares, nonces, _ = evidence_for t s in
        tail :=
          !tail
          @ [
              Entry.Prepare_evidence
                { pe_view = fb.fb_pp.Message.view; pe_seqno = s; pe_prepares = prepares };
              Entry.Nonce_evidence
                { ne_view = fb.fb_pp.Message.view; ne_seqno = s; ne_nonces = nonces };
            ]
  done;
  Ledger.of_entries (entries @ !tail)

let append_batch t kind reqs execute_override =
  let s = t.seqno in
  let primary = primary_id t in
  let ev_prepares, ev_nonces, ev_bitmap = evidence_for t (s - t.rule.pipeline) in
  if s - t.rule.pipeline >= 1 then begin
    let past = Hashtbl.find t.batches (s - t.rule.pipeline) in
    ignore
      (Ledger.append t.led
         (Entry.Prepare_evidence
            {
              pe_view = past.fb_pp.Message.view;
              pe_seqno = s - t.rule.pipeline;
              pe_prepares = ev_prepares;
            }));
    ignore
      (Ledger.append t.led
         (Entry.Nonce_evidence
            {
              ne_view = past.fb_pp.Message.view;
              ne_seqno = s - t.rule.pipeline;
              ne_nonces = ev_nonces;
            }))
  end;
  let base_index = Ledger.length t.led + 1 in
  let gov_before = t.gov_index in
  let txs =
    List.mapi
      (fun k (req : Request.t) ->
        let index = base_index + k in
        let output, wsh =
          match execute_override req index with
          | Some (o, w) ->
              (* Still run the honest execution to keep kv state moving,
                 then record the forged result. *)
              let _, _ =
                App.execute t.app ~config:t.cfg ~caller:req.Request.client_pk
                  ~store:t.store ~proc:req.Request.proc ~args:req.Request.args
              in
              (o, w)
          | None ->
              App.execute t.app ~config:t.cfg ~caller:req.Request.client_pk
                ~store:t.store ~proc:req.Request.proc ~args:req.Request.args
        in
        {
          Batch.request = req;
          index;
          result = { Batch.output; write_set_hash = wsh };
        })
      reqs
  in
  List.iter
    (fun (tx : Batch.tx_entry) ->
      if Request.is_governance tx.Batch.request then t.gov_index <- tx.Batch.index)
    txs;
  let g_root = Batch.g_root txs in
  let m_root = Ledger.m_root t.led in
  let p_nonce = nonce_for t primary ~seqno:s in
  let payload =
    Message.pre_prepare_payload ~view:t.fview ~seqno:s ~m_root ~g_root
      ~nonce_com:(Nonce.commit p_nonce) ~ev_bitmap ~gov_index:gov_before
      ~cp_digest:t.current_dc ~kind ~primary
  in
  let pp : Message.pre_prepare =
    {
      Message.view = t.fview;
      seqno = s;
      m_root;
      g_root;
      nonce_com = Nonce.commit p_nonce;
      ev_bitmap;
      gov_index = gov_before;
      cp_digest = t.current_dc;
      kind;
      primary;
      signature = Schnorr.sign (sk_of t primary) (D.to_raw payload);
    }
  in
  ignore (Ledger.append t.led (Entry.Pre_prepare pp));
  List.iter (fun tx -> ignore (Ledger.append t.led (Entry.Tx tx))) txs;
  let pph = Message.pp_hash pp in
  List.iter
    (fun (id, sk) ->
      let nonce = nonce_for t id ~seqno:s in
      Votes.add_nonce t.votes ~view:t.fview ~seqno:s (id, Nonce.reveal nonce);
      if id <> primary then begin
        let payload =
          Message.prepare_payload ~view:t.fview ~seqno:s ~replica:id
            ~nonce_com:(Nonce.commit nonce) ~pp_hash:pph
        in
        Votes.add_prepare t.votes
          {
            Message.p_view = t.fview;
            p_seqno = s;
            p_replica = id;
            p_nonce_com = Nonce.commit nonce;
            p_pp_hash = pph;
            p_signature = Schnorr.sign sk (D.to_raw payload);
          }
      end)
    t.sks;
  (match kind with
  | Batch.Checkpoint { cp_digest; _ } -> t.current_dc <- cp_digest
  | _ -> ());
  Hashtbl.replace t.batches s { fb_pp = pp; fb_txs = txs };
  if Schedule.checkpoint_due t.rule s then begin
    let cp = Checkpoint.make ~seqno:s (Store.map t.store) in
    Hashtbl.replace t.checkpoints s cp;
    t.latest_cp <- s
  end;
  t.seqno <- s + 1;
  s

let maybe_checkpoint_batch t =
  if Schedule.checkpoint_due t.rule t.seqno then begin
    let cp = Hashtbl.find t.checkpoints t.latest_cp in
    ignore
      (append_batch t
         (Batch.Checkpoint
            { cp_seqno = t.latest_cp; cp_digest = Checkpoint.digest cp })
         []
         (fun _ _ -> None))
  end

let add_batch t ?(execute_override = fun _ _ -> None) reqs =
  maybe_checkpoint_batch t;
  append_batch t Batch.Regular reqs execute_override

let add_special_batch t kind = append_batch t kind [] (fun _ _ -> None)

(* Forge a view change in which every colluder denies having prepared
   anything: history before it is erased and re-written in the new view.
   Appends the view-change set and new-view entries and resets the forged
   sequence numbers (the attack of Lemma 5's cross-view cases). *)
let add_view_change t =
  let v' = t.fview + 1 in
  let vcs =
    List.map
      (fun (id, sk) ->
        let payload =
          Message.view_change_payload ~view:v' ~replica:id ~last_prepared:[]
        in
        {
          Message.vc_view = v';
          vc_replica = id;
          vc_last_prepared = [];
          vc_signature = Schnorr.sign sk (D.to_raw payload);
        })
      t.sks
  in
  ignore (Ledger.append t.led (Entry.View_change_set vcs));
  t.fview <- v';
  let primary = primary_id t in
  let m_root = Ledger.m_root t.led in
  let vc_bitmap = Newview.senders vcs and vc_hash = Newview.digest vcs in
  let payload =
    Message.new_view_payload ~view:v' ~m_root ~vc_bitmap ~vc_hash ~primary
  in
  let nv =
    {
      Message.nv_view = v';
      nv_m_root = m_root;
      nv_vc_bitmap = vc_bitmap;
      nv_vc_hash = vc_hash;
      nv_primary = primary;
      nv_signature = Schnorr.sign (sk_of t primary) (D.to_raw payload);
    }
  in
  ignore (Ledger.append t.led (Entry.New_view nv));
  (* Nothing was reported prepared, so the rewrite resumes at seqno 1; it
     keeps monotone ledger indices, which append_batch does since the old
     entries remain in the file. *)
  t.seqno <- Newview.resume ~pipeline:t.rule.pipeline vcs + 1;
  Hashtbl.reset t.batches

let make_receipt t ~seqno ~tx_position =
  let fb = Hashtbl.find t.batches seqno in
  Receipt.make fb.fb_pp
    (List.map
       (fun (r, (p : Message.prepare), n) -> (r, p.Message.p_signature, n))
       (Option.get (Votes.quorum_backups t.votes fb.fb_pp ~quorum:(quorum t))))
    (match tx_position with
    | None -> Receipt.Batch_subject
    | Some i -> Receipt.tx_subject fb.fb_txs i)

let tamper_tx_output r ~output =
  match r.Receipt.subject with
  | Receipt.Batch_subject -> r
  | Receipt.Tx_subject s ->
      let tx =
        { s.tx with Batch.result = { s.tx.Batch.result with Batch.output } }
      in
      { r with Receipt.subject = Receipt.Tx_subject { s with tx } }
