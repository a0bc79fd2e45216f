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

let fresh_auditor t =
  Audit.create ~genesis:t.genesis ~app:t.app ~pipeline:t.pipeline
    ~checkpoint_interval:t.checkpoint_interval

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

let run_audit t ~receipts ~gov_receipts ~response ~responder =
  let auditor = fresh_auditor t in
  match Audit.add_gov_receipts auditor gov_receipts with
  | Error v -> Error v
  | Ok () ->
      Audit.audit auditor ~receipts ~ledger:response.resp_ledger
        ?checkpoint:response.resp_checkpoint ~responder ()

(* Blamed replica ids to their operators under the genesis configuration. *)
let operators_of t replicas =
  let config = t.genesis.Genesis.initial_config in
  List.filter_map (fun r -> Config.operator_of_replica config r) replicas
  |> List.sort_uniq compare

let investigate t ~receipts ~gov_receipts ~provider =
  match newest_receipt receipts with
  | None -> No_misbehavior
  | Some newest -> (
      let signers = Bitmap.to_list (Receipt.signers newest) in
      let responses =
        List.filter_map
          (fun r -> Option.map (fun resp -> (r, resp)) (provider r))
          signers
      in
      match responses with
      | [] ->
          let punished = operators_of t signers in
          punish t punished;
          Unresponsive_punished { replicas = signers; punished }
      | (responder, response) :: _ -> (
          match run_audit t ~receipts ~gov_receipts ~response ~responder with
          | Ok () -> No_misbehavior
          | Error v ->
              punish t v.Audit.v_blamed_members;
              Members_punished { punished = v.Audit.v_blamed_members; verdict = v }))

let verdicts_equivalent (a : Audit.verdict) (b : Audit.verdict) =
  Bitmap.equal a.Audit.v_blamed_replicas b.Audit.v_blamed_replicas

let verify_upom t ~verdict ~receipts ~gov_receipts ~response ~responder =
  match run_audit t ~receipts ~gov_receipts ~response ~responder with
  | Ok () -> Auditor_punished { reason = "audit finds no misbehavior" }
  | Error v ->
      if verdicts_equivalent verdict v then begin
        punish t v.Audit.v_blamed_members;
        Members_punished { punished = v.Audit.v_blamed_members; verdict = v }
      end
      else Auditor_punished { reason = "uPoM does not match re-audit" }


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
