module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module D = Iaccf_crypto.Digest32
module Sigcheck = Iaccf_crypto.Sigcheck

type t = {
  gen : Genesis.t;
  service_hash : D.t;
  pipeline : int;
  sigs : Sigcheck.t; (* every receipt's signatures, one comb rule *)
  mutable configs : Schedule.timeline;
  mutable chain : Receipt.t list; (* newest first *)
  mutable last_gov_index : int;
  proposals : (string, Config.t) Hashtbl.t;
  (* config_no of the configuration being ended -> P-th end-of-config
     receipt seen, for fork detection (Lemma 7). *)
  eoc_receipts : (int, Receipt.t) Hashtbl.t;
}

let create gen ~pipeline =
  {
    gen;
    service_hash = Genesis.hash gen;
    pipeline;
    sigs = Sigcheck.create_private ();
    configs = Schedule.timeline gen.Genesis.initial_config;
    chain = [];
    last_gov_index = 0;
    proposals = Hashtbl.create 4;
    eoc_receipts = Hashtbl.create 4;
  }

let receipts t = List.rev t.chain
let last_gov_index t = t.last_gov_index

let config_for_seqno t s = Schedule.config_at t.configs s
let latest_config t = Schedule.latest t.configs

let verify_receipt t r =
  let config = config_for_seqno t (Receipt.seqno r) in
  Receipt.verify ~checker:t.sigs ~config ~service:t.service_hash r

let already_have t r = List.exists (Receipt.equal r) t.chain

let add_receipt t r =
  if already_have t r then Ok ()
  else begin
    match verify_receipt t r with
    | Error _ as e -> e
    | Ok () -> (
        match r.Receipt.subject with
        | Receipt.Tx_subject { tx; _ } -> (
            let req = tx.Batch.request in
            let output = App.decode_output tx.Batch.result.Batch.output in
            t.chain <- r :: t.chain;
            t.last_gov_index <- max t.last_gov_index tx.Batch.index;
            match (req.Request.proc, output) with
            | "gov/propose", Ok id -> (
                match Config.deserialize req.Request.args with
                | exception _ -> Error "propose receipt with undecodable configuration"
                | proposed ->
                    Hashtbl.replace t.proposals id proposed;
                    Ok ())
            | "gov/vote", Ok "passed" -> (
                match Hashtbl.find_opt t.proposals req.Request.args with
                | None -> Error "passed vote for an unknown proposal"
                | Some new_config ->
                    t.configs <-
                      Schedule.extend t.configs ~pipeline:t.pipeline
                        ~vote_seqno:(Receipt.seqno r) new_config;
                    Ok ())
            | _, _ -> Ok ())
        | Receipt.Batch_subject -> (
            match r.Receipt.pp.Message.kind with
            | Batch.End_of_config { phase; _ } when phase = t.pipeline -> (
                let ending = (config_for_seqno t (Receipt.seqno r)).Config.config_no in
                match Hashtbl.find_opt t.eoc_receipts ending with
                | Some prev when not (Receipt.equal prev r) ->
                    Error "governance fork: conflicting end-of-config receipts"
                | Some _ -> Ok ()
                | None ->
                    Hashtbl.replace t.eoc_receipts ending r;
                    t.chain <- r :: t.chain;
                    Ok ())
            | Batch.End_of_config _ | Batch.Regular | Batch.Checkpoint _
            | Batch.Start_of_config _ ->
                (* Not part of the governance sub-ledger; ignore. *)
                Ok ()))
  end

let sync_from t rs =
  let sorted =
    List.sort
      (fun a b ->
        match compare (Receipt.seqno a) (Receipt.seqno b) with
        | 0 -> compare (Receipt.index a) (Receipt.index b)
        | c -> c)
      rs
  in
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> add_receipt t r)
    (Ok ()) sorted
