module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Checkpoint = Iaccf_kv.Checkpoint
module Store = Iaccf_kv.Store
module Bitmap = Iaccf_util.Bitmap
module Worker = Iaccf_util.Worker
module D = Iaccf_crypto.Digest32
module Sha256 = Iaccf_crypto.Sha256
module Sigcheck = Iaccf_crypto.Sigcheck

type upom =
  | Invalid_receipt of { ir_receipt : Receipt.t; ir_reason : string }
  | Tied_receipts of { tr_first : Receipt.t; tr_second : Receipt.t }
  | Governance_fork of { gf_first : Receipt.t; gf_second : Receipt.t }
  | Malformed_ledger of { ml_responder : int; ml_reason : string; ml_index : int }
  | Receipt_not_in_ledger of {
      rn_receipt : Receipt.t;
      rn_case : [ `Same_view | `Ledger_view_higher | `Receipt_view_higher ];
      rn_reason : string;
    }
  | Wrong_execution of { we_index : int; we_seqno : int; we_reason : string }

type verdict = {
  v_upom : upom;
  v_blamed_replicas : Bitmap.t;
  v_blamed_members : string list;
}

type t = {
  genesis : Genesis.t;
  service : D.t;
  app : App.t;
  rule : Schedule.rule; (* the replay takes every checkpoint a replica may *)
  chain : Govchain.t;
}

let create ~genesis ~app ~pipeline ~checkpoint_interval =
  {
    genesis;
    service = Genesis.hash genesis;
    app;
    rule = { Schedule.pipeline; interval = checkpoint_interval; checkpoints = true };
    chain = Govchain.create genesis ~pipeline;
  }

(* ------------------------------------------------------------------ *)
(* Verdict assembly                                                    *)

let members_of t ~seqno bitmap =
  let config = Govchain.config_for_seqno t.chain seqno in
  Bitmap.to_list bitmap
  |> List.filter_map (fun r -> Config.operator_of_replica config r)
  |> List.sort_uniq compare

let verdict t ~seqno upom bitmap =
  { v_upom = upom; v_blamed_replicas = bitmap; v_blamed_members = members_of t ~seqno bitmap }

(* ------------------------------------------------------------------ *)
(* Governance receipts (§5.2, Lemma 7)                                 *)

(* A receipt that fails Alg. 3 blames no replica. *)
let invalid t r reason =
  Error
    (verdict t ~seqno:(Receipt.seqno r)
       (Invalid_receipt { ir_receipt = r; ir_reason = reason })
       Bitmap.empty)

let add_gov_receipts t rs =
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> (
        match Govchain.add_receipt t.chain r with
        | Ok () -> go rest
        | Error reason
          when reason = "governance fork: conflicting end-of-config receipts" -> (
            (* Find the receipt it conflicts with to blame the overlap. *)
            match
              List.find_opt
                (fun r' ->
                  (not (Receipt.equal r r'))
                  && r'.Receipt.subject = Receipt.Batch_subject)
                (Govchain.receipts t.chain)
            with
            | Some r' ->
                Error
                  (verdict t ~seqno:(Receipt.seqno r)
                     (Governance_fork { gf_first = r'; gf_second = r })
                     (Bitmap.inter (Receipt.signers r) (Receipt.signers r')))
            | None -> invalid t r reason)
        | Error reason -> invalid t r reason)
  in
  go (List.sort (fun a b -> compare (Receipt.seqno a) (Receipt.seqno b)) rs)

let verify_receipt t r = Govchain.verify_receipt t.chain r

(* ------------------------------------------------------------------ *)
(* Receipt set validation (Alg. 4, auditReceipts)                      *)

let audit_receipts t receipts =
  (* Individual validity under the configuration the chain determines. *)
  let rec validate = function
    | [] -> Ok ()
    | r :: rest -> (
        match Govchain.verify_receipt t.chain r with
        | Ok () -> validate rest
        | Error reason -> invalid t r reason)
  in
  match validate receipts with
  | Error _ as e -> e
  | Ok () ->
      (* Tied receipts: same slot, same view, different pre-prepares means
         two quorums signed contradictory statements. *)
      let rec ties = function
        | [] -> Ok ()
        | r :: rest -> (
            let conflict =
              List.find_opt
                (fun r' ->
                  Receipt.seqno r = Receipt.seqno r'
                  && Receipt.view r = Receipt.view r'
                  && not
                       (D.equal
                          (Message.pp_hash r.Receipt.pp)
                          (Message.pp_hash r'.Receipt.pp)))
                rest
            in
            match conflict with
            | Some r' ->
                let blamed = Bitmap.inter (Receipt.signers r) (Receipt.signers r') in
                Error
                  (verdict t ~seqno:(Receipt.seqno r)
                     (Tied_receipts { tr_first = r; tr_second = r' })
                     blamed)
            | None -> ties rest)
      in
      ties receipts

(* ------------------------------------------------------------------ *)
(* Ledger scan: well-formedness (Appx. B.1)                            *)

type batch_info = {
  bi_pp : Message.pre_prepare;
  bi_pp_index : int;
  bi_txs : Batch.tx_entry list;
}

type scan = {
  sc_batches : (int, batch_info) Hashtbl.t; (* seqno -> effective batch *)
  sc_evidence : (int, Bitmap.t) Hashtbl.t; (* seqno -> evidence contributors *)
  sc_vc_sets : (int * Message.view_change list) list; (* ascending ledger order *)
  sc_max_seqno : int;
  sc_timeline : Schedule.timeline; (* the configurations the passed votes install *)
}

exception Malformed of int * string

(* The scan makes every structural check in ledger order and, where a
   scan checking signatures in place would verify one, queues a job in
   [jobs] tagged with the (ledger index, reason) that scan would fail
   with; helper domains check the jobs meanwhile (Sigcheck). A job that
   passes its structural part reports [true] to the message's verify
   function, so the scan goes on as the in-place scan would after a good
   signature. The result is the scan, or the structural fault that ended
   it. A view-change set queues a job per signature, all tagged with the
   set's fault, as [Newview.set_fault] checks every signature of a set. *)
let scan_ledger t jobs ledger =
  let defer_request tag pk d ~signature =
    Sigcheck.add jobs pk (D.to_raw d) ~signature tag;
    true
  in
  let defer config tag : Message.check =
   fun ~replica d ~signature ->
    match Config.replica_pk config replica with
    | None -> false
    | Some pk -> defer_request tag pk d ~signature
  in
  let batches : (int, batch_info) Hashtbl.t = Hashtbl.create 64 in
  let evidence = Hashtbl.create 64 in
  let vc_sets = ref [] in
  let timeline = ref (Schedule.timeline t.genesis.Genesis.initial_config) in
  let gov_index = ref 0 in
  let next_seqno = ref 1 in
  let max_seqno = ref 0 in
  let last_tx_index = ref 0 in
  (* Pending pieces of the current batch being scanned. *)
  let pending_pe = ref None in
  let pending_ne = ref None in
  let open_batch = ref None in (* (pp, ledger index, txs rev) *)
  let fail i reason = raise (Malformed (i, reason)) in
  let config_at s = Schedule.config_at !timeline s in
  let close_batch i =
    match !open_batch with
    | None -> ()
    | Some (pp, pp_index, txs_rev) ->
        let txs = List.rev txs_rev in
        let s = pp.Message.seqno in
        if not (D.equal (Batch.g_root txs) pp.Message.g_root) then
          fail i (Printf.sprintf "batch %d: transactions do not match g_root" s);
        let bad_client_sig = (i, Printf.sprintf "batch %d: invalid client signature" s) in
        List.iter
          (fun (tx : Batch.tx_entry) ->
            if not (Batch.placed tx) then
              fail i (Printf.sprintf "batch %d: minimum index violated" s);
            if
              not
                (Request.verify tx.Batch.request ~service:t.service
                   ~check:(defer_request bad_client_sig))
            then fail i (snd bad_client_sig);
            if Request.is_governance tx.Batch.request then gov_index := tx.Batch.index)
          txs;
        Hashtbl.replace batches s { bi_pp = pp; bi_pp_index = pp_index; bi_txs = txs };
        max_seqno := max !max_seqno s;
        (* A vote that passes schedules the configuration change 2P later.
           The recorded output is structural here; replay re-checks it.
           The installed configuration is in the args of the gov/propose
           transaction the vote names, in this batch or an earlier one. *)
        List.iter
          (fun (tx : Batch.tx_entry) ->
            if
              tx.Batch.request.Request.proc = "gov/vote"
              && App.decode_output tx.Batch.result.Batch.output = Ok "passed"
            then begin
              let proposal_id = tx.Batch.request.Request.args in
              let proposes (tx' : Batch.tx_entry) =
                tx'.Batch.request.Request.proc = "gov/propose"
                && D.to_hex (D.of_string tx'.Batch.request.Request.args) = proposal_id
              in
              let proposal =
                Hashtbl.fold
                  (fun _ bi acc ->
                    if Option.is_none acc then List.find_opt proposes bi.bi_txs else acc)
                  batches None
              in
              let config_of (tx' : Batch.tx_entry) =
                match Config.deserialize tx'.Batch.request.Request.args with
                | c -> Some c
                | exception _ -> None
              in
              match Option.bind proposal config_of with
              | Some c ->
                  timeline := Schedule.extend !timeline ~pipeline:t.rule.pipeline ~vote_seqno:s c
              | None -> fail i "passed vote without a visible proposal"
            end)
          txs;
        open_batch := None
  in
  let scan_entry i entry =
    (match entry with
    | Entry.Tx _ -> ()
    | _ -> close_batch i);
    (match entry with
    | Entry.Genesis g ->
        if i <> 0 then fail i "genesis entry not at index 0";
        if not (D.equal (Genesis.hash g) t.service) then fail i "wrong service genesis"
    | Entry.Tx tx -> (
        match !open_batch with
        | None -> fail i "transaction entry outside a batch"
        | Some (pp, pp_index, txs_rev) ->
            (* Indices are logical: strictly increasing, consecutive within a
               batch, never ahead of the physical position (a batch
               re-proposed after a view change keeps its original, lower
               indices; see Alg. 2). *)
            if tx.Batch.index > i then fail i "transaction index ahead of position";
            if tx.Batch.index <= !last_tx_index then
              fail i "transaction index not increasing";
            (match txs_rev with
            | prev :: _ when tx.Batch.index <> prev.Batch.index + 1 ->
                fail i "non-consecutive indices within a batch"
            | _ -> ());
            last_tx_index := tx.Batch.index;
            open_batch := Some (pp, pp_index, tx :: txs_rev))
    | Entry.Prepare_evidence { pe_view; pe_seqno; pe_prepares } -> (
        if !pending_pe <> None then fail i "dangling prepare evidence";
        (* A fresh pair may follow a tail pair that no pre-prepare will
           consume (the package's message box, Appx. B.1). *)
        pending_ne := None;
        match Hashtbl.find_opt batches pe_seqno with
        | None -> fail i "evidence for an unknown batch"
        | Some bi ->
            if bi.bi_pp.Message.view <> pe_view then
              fail i "evidence view does not match batch";
            let pph = Message.pp_hash bi.bi_pp in
            let config = config_at pe_seqno in
            let check = defer config (i, "invalid prepare evidence signature") in
            let seen = Hashtbl.create 8 in
            List.iter
              (fun (p : Message.prepare) ->
                Option.iter (fail i) (Votes.prepare_fault bi.bi_pp ~pph p);
                if Hashtbl.mem seen p.Message.p_replica then
                  fail i "duplicate prepare evidence";
                Hashtbl.add seen p.Message.p_replica ();
                if not (Message.verify_prepare ~check p) then
                  fail i "invalid prepare evidence signature")
              pe_prepares;
            if List.length pe_prepares <> Config.quorum config - 1 then
              fail i "prepare evidence quorum size wrong";
            pending_pe := Some (pe_seqno, pe_view, pe_prepares))
    | Entry.Nonce_evidence { ne_view; ne_seqno; ne_nonces } -> (
        match !pending_pe with
        | Some (s, v, prepares) when s = ne_seqno && v = ne_view -> (
            match Hashtbl.find_opt batches ne_seqno with
            | None -> fail i "nonce evidence for an unknown batch"
            | Some bi ->
                let config = config_at ne_seqno in
                List.iter
                  (fun vote -> Option.iter (fail i) (Votes.nonce_fault bi.bi_pp prepares vote))
                  ne_nonces;
                if List.length ne_nonces <> Config.quorum config then
                  fail i "nonce evidence quorum size wrong";
                let bitmap = Bitmap.of_list (List.map fst ne_nonces) in
                Hashtbl.replace evidence ne_seqno bitmap;
                pending_ne := Some (ne_seqno, bitmap);
                pending_pe := None)
        | _ -> fail i "nonce evidence without matching prepare evidence")
    | Entry.Pre_prepare pp ->
        let s = pp.Message.seqno in
        let config = config_at s in
        if s <> !next_seqno then
          fail i (Printf.sprintf "unexpected sequence number %d (expected %d)" s !next_seqno);
        if
          not
            (Message.verify_pre_prepare
               ~check:(defer config (i, "invalid pre-prepare signature"))
               config pp)
        then fail i "invalid pre-prepare signature";
        if not (D.equal pp.Message.m_root (Ledger.m_root_at ledger i)) then
          fail i "pre-prepare m_root does not bind the ledger prefix";
        if pp.Message.gov_index <> !gov_index then
          fail i "pre-prepare gov_index incorrect";
        (match (!pending_ne, s - t.rule.pipeline) with
        | Some (es, bitmap), expected ->
            if es <> expected then fail i "evidence for the wrong batch";
            if not (Bitmap.equal bitmap pp.Message.ev_bitmap) then
              fail i "ev_bitmap does not match evidence";
            pending_ne := None
        | None, expected ->
            if expected >= 1 then fail i "missing commitment evidence"
            else if not (Bitmap.equal pp.Message.ev_bitmap Bitmap.empty) then
              fail i "unexpected evidence bitmap");
        open_batch := Some (pp, i, []);
        next_seqno := s + 1
    | Entry.View_change_set vcs ->
        let config = config_at !next_seqno in
        let check = defer config (i, "invalid view-change signature") in
        Option.iter (fail i)
          (Newview.set_fault ~quorum:(Config.quorum config)
             ~verify:(Message.verify_view_change ~check)
             vcs);
        vc_sets := ((List.hd vcs).Message.vc_view, vcs) :: !vc_sets;
        next_seqno := Newview.resume ~pipeline:t.rule.pipeline vcs + 1
    | Entry.New_view nv ->
        let config = config_at !next_seqno in
        if
          not
            (Message.verify_new_view
               ~check:(defer config (i, "invalid new-view signature"))
               config nv)
        then fail i "invalid new-view signature";
        (match !vc_sets with
        | (_, vcs) :: _ -> Option.iter (fail i) (Newview.names_fault nv vcs)
        | [] -> fail i "new-view without view changes");
        if not (D.equal nv.Message.nv_m_root (Ledger.m_root_at ledger i)) then
          fail i "new-view m_root mismatch")
  in
  match
    Ledger.iteri scan_entry ledger;
    close_batch (Ledger.length ledger)
  with
  | () ->
      Ok
        {
          sc_batches = batches;
          sc_evidence = evidence;
          sc_vc_sets = List.rev !vc_sets;
          sc_max_seqno = !max_seqno;
          sc_timeline = !timeline;
        }
  | exception Malformed (i, reason) -> Error (i, reason)

(* ------------------------------------------------------------------ *)
(* Receipts vs ledger (Lemma 5)                                        *)

let batch_signers scan s =
  match (Hashtbl.find_opt scan.sc_evidence s, Hashtbl.find_opt scan.sc_batches s) with
  | Some bitmap, Some bi -> Some (Bitmap.add bi.bi_pp.Message.primary bitmap)
  | None, Some _ | _, None -> None

(* A receipt matches a ledger batch when the batch *content* agrees: after
   an honest view change the batch is re-proposed under a higher view with
   the same per-batch Merkle root and results (Alg. 2), so receipts from the
   old view remain truthful. *)
let receipt_compatible (r : Receipt.t) (bi : batch_info) =
  D.equal r.Receipt.pp.Message.g_root bi.bi_pp.Message.g_root
  && Batch.kind_equal r.Receipt.pp.Message.kind bi.bi_pp.Message.kind
  &&
  match r.Receipt.subject with
  | Receipt.Batch_subject -> true
  | Receipt.Tx_subject { tx; _ } ->
      List.exists
        (fun (tx' : Batch.tx_entry) ->
          String.equal (Batch.serialize_tx_entry tx') (Batch.serialize_tx_entry tx))
        bi.bi_txs

(* A view-change quorum for view v whose messages do not report the
   receipt's pre-prepare as prepared contradicts the receipt. *)
let find_contradicting_vc_set scan ~lo ~hi (r : Receipt.t) =
  let pph = Message.pp_hash r.Receipt.pp in
  List.find_opt
    (fun (v, vcs) ->
      v > lo && v <= hi
      && not
           (List.exists
              (fun (vc : Message.view_change) ->
                List.exists
                  (fun pp -> D.equal (Message.pp_hash pp) pph)
                  vc.Message.vc_last_prepared)
              vcs))
    scan.sc_vc_sets

let verify_receipts_in_ledger t ~responder scan receipts =
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> (
        let s = Receipt.seqno r in
        match Hashtbl.find_opt scan.sc_batches s with
        | None -> (
            (* Ledger too short for the receipt: a view change must have
               buried it; otherwise the responder withheld data. *)
            match find_contradicting_vc_set scan ~lo:(Receipt.view r) ~hi:max_int r with
            | Some (_, vcs) ->
                let senders =
                  Bitmap.of_list (List.map (fun vc -> vc.Message.vc_replica) vcs)
                in
                let blamed = Bitmap.inter senders (Receipt.signers r) in
                Error
                  (verdict t ~seqno:s
                     (Receipt_not_in_ledger
                        {
                          rn_receipt = r;
                          rn_case = `Receipt_view_higher;
                          rn_reason = "batch missing; a view-change quorum denied preparing it";
                        })
                     blamed)
            | None ->
                Error
                  (verdict t ~seqno:s
                     (Malformed_ledger
                        {
                          ml_responder = responder;
                          ml_reason = "ledger does not cover a valid receipt";
                          ml_index = 0;
                        })
                     Bitmap.empty))
        | Some bi ->
            if receipt_compatible r bi then go rest
            else begin
              let v_r = Receipt.view r and v_l = bi.bi_pp.Message.view in
              if v_l = v_r then begin
                match batch_signers scan s with
                | Some ledger_signers ->
                    let blamed = Bitmap.inter ledger_signers (Receipt.signers r) in
                    Error
                      (verdict t ~seqno:s
                         (Receipt_not_in_ledger
                            {
                              rn_receipt = r;
                              rn_case = `Same_view;
                              rn_reason =
                                "two quorums signed different batches in one view";
                            })
                         blamed)
                | None ->
                    Error
                      (verdict t ~seqno:s
                         (Malformed_ledger
                            {
                              ml_responder = responder;
                              ml_reason = "no evidence for the conflicting batch";
                              ml_index = bi.bi_pp_index;
                            })
                         Bitmap.empty)
              end
              else begin
                let lo, hi, case =
                  if v_l > v_r then (v_r, v_l, `Ledger_view_higher)
                  else (v_l, v_r, `Receipt_view_higher)
                in
                match find_contradicting_vc_set scan ~lo ~hi r with
                | Some (_, vcs) ->
                    let senders =
                      Bitmap.of_list (List.map (fun vc -> vc.Message.vc_replica) vcs)
                    in
                    let blamed = Bitmap.inter senders (Receipt.signers r) in
                    Error
                      (verdict t ~seqno:s
                         (Receipt_not_in_ledger
                            {
                              rn_receipt = r;
                              rn_case = case;
                              rn_reason =
                                "a view-change quorum omitted the prepared batch";
                            })
                         blamed)
                | None ->
                    Error
                      (verdict t ~seqno:s
                         (Malformed_ledger
                            {
                              ml_responder = responder;
                              ml_reason = "missing view-change messages for receipt views";
                              ml_index = bi.bi_pp_index;
                            })
                         Bitmap.empty)
              end
            end)
  in
  go receipts

(* ------------------------------------------------------------------ *)
(* Replay (Alg. 4, replayLedger)                                       *)

(* [checkpoint] comes with its digest, hashed on the worker domain. *)
let replay_ledger t ~responder scan ~checkpoint =
  let store, start_seqno =
    match checkpoint with
    | None -> (Store.create (), 0)
    | Some (cp, _) -> (Store.of_map cp.Checkpoint.state, cp.Checkpoint.seqno)
  in
  (* When starting from a checkpoint, its digest must be recorded by some
     checkpoint transaction in the ledger. *)
  (match checkpoint with
  | None -> Ok ()
  | Some (cp, digest) ->
      let digest = Worker.await digest in
      let recorded =
        Hashtbl.fold
          (fun _ bi acc ->
            acc
            ||
            match bi.bi_pp.Message.kind with
            | Batch.Checkpoint { cp_seqno; cp_digest } ->
                cp_seqno = cp.Checkpoint.seqno && D.equal cp_digest digest
            | _ -> false)
          scan.sc_batches false
      in
      if recorded then Ok ()
      else
        Error
          (verdict t ~seqno:cp.Checkpoint.seqno
             (Malformed_ledger
                {
                  ml_responder = responder;
                  ml_reason = "checkpoint digest not recorded in the ledger";
                  ml_index = 0;
                })
             Bitmap.empty))
  |> function
  | Error _ as e -> e
  | Ok () ->
      (* A checkpoint is digested only when a checkpoint transaction
         names it; the map is immutable, so keeping it costs only what
         later batches change, and forcing the digest lets it go. *)
      let replay_cps = Hashtbl.create 8 in
      let take_cp s =
        let map = Store.map store in
        Hashtbl.replace replay_cps s (lazy (Checkpoint.digest (Checkpoint.make ~seqno:s map)))
      in
      if start_seqno = 0 then take_cp 0;
      let blame_batch s =
        match batch_signers scan s with Some b -> b | None -> Bitmap.empty
      in
      let rec go s =
        if s > scan.sc_max_seqno then Ok ()
        else begin
          match Hashtbl.find_opt scan.sc_batches s with
          | None ->
              Error
                (verdict t ~seqno:s
                   (Malformed_ledger
                      {
                        ml_responder = responder;
                        ml_reason = Printf.sprintf "gap at sequence number %d" s;
                        ml_index = 0;
                      })
                   Bitmap.empty)
          | Some bi -> (
              let exec_result =
                if s <= start_seqno then Ok ()
                else begin
                  let config = Schedule.config_at scan.sc_timeline s in
                  let rec exec = function
                    | [] -> Ok ()
                    | (tx : Batch.tx_entry) :: rest ->
                        let output, wsh =
                          App.execute t.app ~config
                            ~caller:tx.Batch.request.Request.client_pk ~store
                            ~proc:tx.Batch.request.Request.proc
                            ~args:tx.Batch.request.Request.args
                        in
                        if
                          String.equal output tx.Batch.result.Batch.output
                          && D.equal wsh tx.Batch.result.Batch.write_set_hash
                        then exec rest
                        else
                          Error
                            (verdict t ~seqno:s
                               (Wrong_execution
                                  {
                                    we_index = tx.Batch.index;
                                    we_seqno = s;
                                    we_reason = "replay result differs from the ledger";
                                  })
                               (blame_batch s))
                  in
                  exec bi.bi_txs
                end
              in
              match exec_result with
              | Error _ as e -> e
              | Ok () -> (
                  (* Checkpoint transactions must record digests this replay
                     reproduces. *)
                  let cp_check =
                    match bi.bi_pp.Message.kind with
                    | Batch.Checkpoint { cp_seqno; cp_digest }
                      when s > start_seqno && cp_seqno > start_seqno -> (
                        match Hashtbl.find_opt replay_cps cp_seqno with
                        | Some own when D.equal (Lazy.force own) cp_digest -> Ok ()
                        | Some _ ->
                            Error
                              (verdict t ~seqno:s
                                 (Wrong_execution
                                    {
                                      we_index = bi.bi_pp_index;
                                      we_seqno = s;
                                      we_reason = "checkpoint digest mismatch";
                                    })
                                 (blame_batch s))
                        | None -> Ok () (* before our replay window *))
                    | _ -> Ok ()
                  in
                  match cp_check with
                  | Error _ as e -> e
                  | Ok () ->
                      if
                        s > start_seqno
                        && (Schedule.checkpoint_due t.rule s
                           || Schedule.activates scan.sc_timeline s)
                      then take_cp s;
                      go (s + 1)))
        end
      in
      go (max 1 (start_seqno + 1))

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

(* The scan and the signature checks run as a pipeline: helper domains
   check each job the scan queues while the scan goes on, and finish the
   list while the caller checks the receipts against the ledger and
   replays it. The start checkpoint's digest is hashed on the worker
   domain meanwhile. The verdict is the first failure in scan order: a
   failing job, else the structural fault that ended the scan, else the
   receipts', else the replay's. So the receipt checks and the replay run
   on every ledger whose scan completes, whatever the jobs hold, and the
   work counts do not depend on timing; their verdict, or an exception
   they raise, counts only when every job passed. *)
let audit_gen ?width t ~receipts ~ledger ?checkpoint ~responder () =
  match audit_receipts t receipts with
  | Error _ as e -> e
  | Ok () -> (
      let checkpoint =
        Option.map
          (fun cp -> (cp, Worker.submit (Sha256.count_here (fun () -> Checkpoint.digest cp))))
          checkpoint
      in
      let jobs = Sigcheck.start ?width ~expected:(Ledger.length ledger) () in
      let malformed (i, reason) =
        Error
          (verdict t ~seqno:1
             (Malformed_ledger { ml_responder = responder; ml_reason = reason; ml_index = i })
             Bitmap.empty)
      in
      let rest () =
        match scan_ledger t jobs ledger with
        | Error fault -> malformed fault
        | Ok scan -> (
            Sigcheck.close jobs;
            match verify_receipts_in_ledger t ~responder scan receipts with
            | Error _ as e -> e
            | Ok () -> replay_ledger t ~responder scan ~checkpoint)
      in
      let outcome =
        match rest () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      (* The digest's compressions count here once it has finished. *)
      Option.iter (fun (_, digest) -> ignore (Worker.await digest)) checkpoint;
      match (Sigcheck.finish jobs, outcome) with
      | Some fault, _ -> malformed fault
      | None, Ok v -> v
      | None, Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let audit t = audit_gen t
let audit_at_width ~width t = audit_gen ~width t

let pp_upom ppf = function
  | Invalid_receipt { ir_reason; _ } -> Format.fprintf ppf "invalid-receipt(%s)" ir_reason
  | Tied_receipts _ -> Format.pp_print_string ppf "tied-receipts"
  | Governance_fork _ -> Format.pp_print_string ppf "governance-fork"
  | Malformed_ledger { ml_reason; ml_index; _ } ->
      Format.fprintf ppf "malformed-ledger(%s@%d)" ml_reason ml_index
  | Receipt_not_in_ledger { rn_reason; _ } ->
      Format.fprintf ppf "receipt-not-in-ledger(%s)" rn_reason
  | Wrong_execution { we_index; we_reason; _ } ->
      Format.fprintf ppf "wrong-execution(i=%d,%s)" we_index we_reason

let pp_verdict ppf v =
  Format.fprintf ppf "%a blaming replicas %a (members: %s)" pp_upom v.v_upom
    Bitmap.pp v.v_blamed_replicas
    (String.concat "," v.v_blamed_members)
