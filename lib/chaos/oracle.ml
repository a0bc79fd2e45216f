module Bitmap = Iaccf_util.Bitmap
module Package = Iaccf_storage.Package
open Iaccf_core

type verdict = {
  vd_scenario : string;
  vd_seed : int;
  vd_result : (string, string) result;
}

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* Round-trip the run's evidence through a ledger package on disk: the
   oracle audits what an offline auditor would import, not the in-memory
   structures, so the export path is under test too. *)
let package_round_trip ~scratch (oc : Scenario.outcome) =
  let blobs =
    List.map Receipt.serialize (oc.Scenario.oc_receipts @ oc.Scenario.oc_gov_receipts)
  in
  let pkg =
    Package.of_ledger ?checkpoint:oc.Scenario.oc_checkpoint ~receipts:blobs
      oc.Scenario.oc_ledger
  in
  let path = Filename.concat scratch "audit-package.bin" in
  Package.write_file path pkg;
  let pkg = Package.read_file path in
  Sys.remove path;
  let receipts = List.map Receipt.deserialize pkg.Package.pkg_receipts in
  let n_regular = List.length oc.Scenario.oc_receipts in
  let regular = List.filteri (fun i _ -> i < n_regular) receipts in
  let gov = List.filteri (fun i _ -> i >= n_regular) receipts in
  (Package.to_ledger pkg, regular, gov, pkg.Package.pkg_checkpoint)

let fresh_app () = App.create Cluster.counter_app_procs

let make_enforcer (oc : Scenario.outcome) =
  Enforcer.create ~genesis:oc.Scenario.oc_genesis ~app:(fresh_app ())
    ~pipeline:oc.Scenario.oc_params.Replica.pipeline
    ~checkpoint_interval:oc.Scenario.oc_params.Replica.checkpoint_interval

(* Run Alg. 4 over the imported package, governance receipts first (the
   fork check of Lemma 7 happens there). *)
let run_audit (oc : Scenario.outcome) ~ledger ~receipts ~gov_receipts ~checkpoint =
  let auditor =
    Audit.create ~genesis:oc.Scenario.oc_genesis ~app:(fresh_app ())
      ~pipeline:oc.Scenario.oc_params.Replica.pipeline
      ~checkpoint_interval:oc.Scenario.oc_params.Replica.checkpoint_interval
  in
  match Audit.add_gov_receipts auditor gov_receipts with
  | Error v -> Error v
  | Ok () ->
      Audit.audit auditor ~receipts ~ledger ?checkpoint
        ~responder:oc.Scenario.oc_responder ()

let check_tolerated (oc : Scenario.outcome) ~ledger ~receipts ~gov_receipts
    ~checkpoint =
  if oc.Scenario.oc_completed < oc.Scenario.oc_submitted then
    fail "liveness: %d/%d requests completed" oc.Scenario.oc_completed
      oc.Scenario.oc_submitted
  else
    let lincheck =
      if not oc.Scenario.oc_lincheck_closed then Ok ()
      else
        match
          Lincheck.check ~app:(fresh_app ()) ~genesis:oc.Scenario.oc_genesis
            ~receipts
        with
        | Ok () -> Ok ()
        | Error v ->
            fail "lincheck violation: %a" Lincheck.pp_violation v
    in
    match lincheck with
    | Error _ as e -> e
    | Ok () -> (
        match
          run_audit oc ~ledger ~receipts ~gov_receipts ~checkpoint
        with
        | Ok () ->
            Ok
              (Printf.sprintf "%d/%d completed, lincheck%s ok, audit clean"
                 oc.Scenario.oc_completed oc.Scenario.oc_submitted
                 (if oc.Scenario.oc_lincheck_closed then "" else " (skipped)"))
        | Error v -> fail "audit of honest run found: %a" Audit.pp_verdict v)

let check_blamed (oc : Scenario.outcome) ~culprits ~ledger ~receipts
    ~gov_receipts ~checkpoint =
  match run_audit oc ~ledger ~receipts ~gov_receipts ~checkpoint with
  | Ok () -> fail "audit missed scripted misbehaviour by {%s}"
               (String.concat "," (List.map string_of_int culprits))
  | Error verdict -> (
      (* The uPoM must survive independent re-verification (§4.2). *)
      let enforcer = make_enforcer oc in
      match
        Enforcer.verify_upom enforcer ~verdict ~receipts ~gov_receipts
          ~response:{ Enforcer.resp_ledger = ledger; resp_checkpoint = checkpoint }
          ~responder:oc.Scenario.oc_responder
      with
      | Enforcer.Auditor_punished { reason } ->
          fail "enforcer rejected the uPoM: %s" reason
      | Enforcer.No_misbehavior | Enforcer.Unresponsive_punished _
      | Enforcer.Receipt_refused _ ->
          fail "enforcer did not confirm the uPoM"
      | Enforcer.Members_punished { punished; verdict } ->
          let blamed = Bitmap.to_list verdict.Audit.v_blamed_replicas in
          let min_blame = Scenario.faulty_f oc.Scenario.oc_genesis + 1 in
          let false_blame =
            List.filter (fun r -> not (List.mem r culprits)) blamed
          in
          if false_blame <> [] then
            fail "false blame: honest replicas {%s} in uPoM %a"
              (String.concat "," (List.map string_of_int false_blame))
              Audit.pp_upom verdict.Audit.v_upom
          else if List.length blamed < min_blame then
            fail "uPoM blames only %d replicas (need >= %d): %a"
              (List.length blamed) min_blame Audit.pp_upom
              verdict.Audit.v_upom
          else if punished = [] then fail "no members punished"
          else
            Ok
              (Format.asprintf "uPoM %a blames {%s}, members %s punished"
                 Audit.pp_upom verdict.Audit.v_upom
                 (String.concat "," (List.map string_of_int blamed))
                 (String.concat "," punished)))

let check (sc : Scenario.t) ~seed ~scratch (oc : Scenario.outcome) =
  let result =
    try
      let ledger, receipts, gov_receipts, checkpoint =
        package_round_trip ~scratch oc
      in
      match sc.Scenario.sc_expect with
      | Scenario.Tolerated ->
          check_tolerated oc ~ledger ~receipts ~gov_receipts ~checkpoint
      | Scenario.Blamed { culprits } ->
          check_blamed oc ~culprits ~ledger ~receipts ~gov_receipts ~checkpoint
    with e -> fail "oracle raised: %s" (Printexc.to_string e)
  in
  { vd_scenario = sc.Scenario.sc_name; vd_seed = seed; vd_result = result }
