module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Bitmap = Iaccf_util.Bitmap

type response = {
  resp_ledger : Iaccf_ledger.Ledger.t;
  resp_checkpoint : Iaccf_kv.Checkpoint.t option;
}

type outcome =
  | No_misbehavior
  | Members_punished of { punished : string list; verdict : Audit.verdict }
  | Unresponsive_punished of { replicas : int list; punished : string list }
  | Auditor_punished of { reason : string }
  | Receipt_refused of { reason : string }

type t = {
  genesis : Genesis.t;
  app : App.t;
  pipeline : int;
  checkpoint_interval : int;
  mutable punished : string list;
  watches : (string, Iaccf_types.Config.t) Hashtbl.t; (* request hash -> config *)
  mutable violations : Iaccf_crypto.Digest32.t list;
}

let create ~genesis ~app ~pipeline ~checkpoint_interval =
  {
    genesis;
    app;
    pipeline;
    checkpoint_interval;
    punished = [];
    watches = Hashtbl.create 8;
    violations = [];
  }

let punish t members =
  t.punished <- List.sort_uniq compare (members @ t.punished)

let punished_members t = t.punished

let newest_receipt receipts =
  List.fold_left
    (fun acc r ->
      match acc with
      | None -> Some r
      | Some best ->
          if
            (Receipt.view r, Receipt.seqno r, Receipt.index r)
            > (Receipt.view best, Receipt.seqno best, Receipt.index best)
          then Some r
          else acc)
    None receipts

(* The audit's governance chain, fed [gov_receipts]: one per investigation. *)
let auditor t gov_receipts =
  let a =
    Audit.create ~genesis:t.genesis ~app:t.app ~pipeline:t.pipeline
      ~checkpoint_interval:t.checkpoint_interval
  in
  Result.map (fun () -> a) (Audit.add_gov_receipts a gov_receipts)

let audit_response a ~receipts ~response ~responder =
  Audit.audit a ~receipts ~ledger:response.resp_ledger
    ?checkpoint:response.resp_checkpoint ~responder ()

let members_punished t (v : Audit.verdict) =
  punish t v.Audit.v_blamed_members;
  Members_punished { punished = v.Audit.v_blamed_members; verdict = v }

(* A fork in the governance chain is punished as the audit finds it;
   otherwise only a receipt the chain verifies names whom to ask, and
   under which configuration their operators are found. *)
let investigate t ~receipts ~gov_receipts ~provider =
  match newest_receipt receipts with
  | None -> No_misbehavior
  | Some newest -> (
      match auditor t gov_receipts with
      | Error v -> members_punished t v
      | Ok a -> (
          match Audit.verify_receipt a newest with
          | Error reason -> Receipt_refused { reason }
          | Ok () -> (
              let signers = Receipt.signers newest in
              let responses =
                List.filter_map
                  (fun r -> Option.map (fun resp -> (r, resp)) (provider r))
                  (Bitmap.to_list signers)
              in
              match responses with
              | [] ->
                  let punished = Audit.members_of a ~seqno:(Receipt.seqno newest) signers in
                  punish t punished;
                  Unresponsive_punished { replicas = Bitmap.to_list signers; punished }
              | (responder, response) :: _ -> (
                  match audit_response a ~receipts ~response ~responder with
                  | Ok () -> No_misbehavior
                  | Error v -> members_punished t v))))

let verdicts_equivalent (a : Audit.verdict) (b : Audit.verdict) =
  Bitmap.equal a.Audit.v_blamed_replicas b.Audit.v_blamed_replicas

let verify_upom t ~verdict ~receipts ~gov_receipts ~response ~responder =
  match
    Result.bind (auditor t gov_receipts) (audit_response ~receipts ~response ~responder)
  with
  | Ok () -> Auditor_punished { reason = "audit finds no misbehavior" }
  | Error v when verdicts_equivalent verdict v -> members_punished t v
  | Error _ -> Auditor_punished { reason = "uPoM does not match re-audit" }


(* --- liveness monitoring (§2) --- *)

module Request = Iaccf_types.Request
module D = Iaccf_crypto.Digest32
module Batch = Iaccf_types.Batch

let watch t ~sched ~request ~config ~deadline_ms =
  let h = D.to_raw (Request.hash request) in
  Hashtbl.replace t.watches h config;
  ignore
    (Iaccf_sim.Sched.schedule sched ~delay:deadline_ms (fun () ->
         match Hashtbl.find_opt t.watches h with
         | None -> () (* a receipt arrived in time *)
         | Some config ->
             Hashtbl.remove t.watches h;
             t.violations <- Request.hash request :: t.violations;
             punish t
               (List.filter_map
                  (fun (r : Config.replica_info) ->
                    Config.operator_of_replica config r.Config.replica_id)
                  config.Config.replicas)))

let notify_receipt t receipt =
  match receipt.Receipt.subject with
  | Receipt.Tx_subject { tx; _ } ->
      Hashtbl.remove t.watches (D.to_raw (Request.hash tx.Batch.request))
  | Receipt.Batch_subject -> ()

let liveness_violations t = List.rev t.violations
