(* SmallBank application tests: procedure semantics, determinism, and
   end-to-end runs on a cluster with audit replay. *)

open Iaccf_app
module App = Iaccf_core.App
module Store = Iaccf_kv.Store
module Cluster = Iaccf_core.Cluster
module Client = Iaccf_core.Client
module Replica = Iaccf_core.Replica
module Audit = Iaccf_core.Audit
module Rng = Iaccf_util.Rng

(* The store's state as a checkpoint digest would seal it. *)
let state_digest store =
  Iaccf_kv.Checkpoint.(digest (make ~seqno:0 (Store.map store)))

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let exec app store proc args =
  let _, pk = Iaccf_crypto.Schnorr.keypair_of_seed "sb-caller" in
  let output, _ =
    App.execute app
      ~config:
        {
          Iaccf_types.Config.config_no = 0;
          members = [];
          replicas = [];
          vote_threshold = 1;
        }
      ~caller:pk ~store ~proc ~args
  in
  App.decode_output output

let fresh () = (Smallbank.app (), Store.create ())

let test_create_and_balance () =
  let app, store = fresh () in
  check
    Alcotest.(result string string)
    "create" (Ok "150")
    (exec app store "sb/create" (Smallbank.create_args ~account:1 ~checking:100 ~savings:50));
  check
    Alcotest.(result string string)
    "balance" (Ok "150")
    (exec app store "sb/balance" (Smallbank.balance_args ~account:1));
  check Alcotest.bool "duplicate create rejected" true
    (Result.is_error (exec app store "sb/create" (Smallbank.create_args ~account:1 ~checking:1 ~savings:1)))

let test_deposit_withdraw () =
  let app, store = fresh () in
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:1 ~checking:100 ~savings:50));
  check Alcotest.(result string string) "deposit to savings" (Ok "80")
    (exec app store "sb/deposit" (Smallbank.deposit_args ~account:1 ~amount:30));
  check Alcotest.(result string string) "withdraw from checking" (Ok "60")
    (exec app store "sb/withdraw" (Smallbank.withdraw_args ~account:1 ~amount:40));
  check Alcotest.bool "overdraft rejected" true
    (Result.is_error (exec app store "sb/withdraw" (Smallbank.withdraw_args ~account:1 ~amount:1000)));
  check Alcotest.(result string string) "total" (Ok "140")
    (exec app store "sb/balance" (Smallbank.balance_args ~account:1))

let test_transfer () =
  let app, store = fresh () in
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:1 ~checking:100 ~savings:0));
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:2 ~checking:10 ~savings:0));
  check Alcotest.(result string string) "transfer" (Ok "70")
    (exec app store "sb/transfer" (Smallbank.transfer_args ~src:1 ~dst:2 ~amount:30));
  check Alcotest.(result string string) "dst credited" (Ok "40")
    (exec app store "sb/balance" (Smallbank.balance_args ~account:2));
  check Alcotest.bool "insufficient" true
    (Result.is_error (exec app store "sb/transfer" (Smallbank.transfer_args ~src:1 ~dst:2 ~amount:1000)));
  check Alcotest.bool "missing dst" true
    (Result.is_error (exec app store "sb/transfer" (Smallbank.transfer_args ~src:1 ~dst:9 ~amount:1)))

let test_amalgamate () =
  let app, store = fresh () in
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:1 ~checking:100 ~savings:50));
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:2 ~checking:10 ~savings:5));
  check Alcotest.(result string string) "amalgamate" (Ok "160")
    (exec app store "sb/amalgamate" (Smallbank.amalgamate_args ~src:1 ~dst:2));
  check Alcotest.(result string string) "src emptied" (Ok "0")
    (exec app store "sb/balance" (Smallbank.balance_args ~account:1));
  check Alcotest.(result string string) "dst holds all" (Ok "165")
    (exec app store "sb/balance" (Smallbank.balance_args ~account:2))

let test_failed_procedures_do_not_write () =
  let app, store = fresh () in
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:1 ~checking:10 ~savings:0));
  ignore (exec app store "sb/create" (Smallbank.create_args ~account:2 ~checking:0 ~savings:0));
  let before = state_digest store in
  ignore (exec app store "sb/transfer" (Smallbank.transfer_args ~src:1 ~dst:2 ~amount:100));
  check Alcotest.bool "state unchanged after failed tx" true
    (Iaccf_crypto.Digest32.equal before (state_digest store))

let prop_money_conserved =
  QCheck.Test.make ~name:"random workload conserves total money" ~count:30
    QCheck.(int_bound 10000)
    (fun seed ->
      let app, store = fresh () in
      let accounts = 5 in
      List.iter
        (fun (op : Smallbank.op) -> ignore (exec app store op.Smallbank.op_proc op.Smallbank.op_args))
        (Smallbank.setup_ops ~accounts ~initial_balance:100);
      let rng = Rng.create seed in
      for _ = 1 to 100 do
        let op = Smallbank.random_op rng ~accounts in
        ignore (exec app store op.Smallbank.op_proc op.Smallbank.op_args)
      done;
      (* deposits add money; withdrawals remove it; transfers and
         amalgamations conserve. Recompute rather than track: replay the
         same ops on a second store and compare state digests
         (determinism). *)
      let app2, store2 = fresh () in
      List.iter
        (fun (op : Smallbank.op) -> ignore (exec app2 store2 op.Smallbank.op_proc op.Smallbank.op_args))
        (Smallbank.setup_ops ~accounts ~initial_balance:100);
      let rng2 = Rng.create seed in
      for _ = 1 to 100 do
        let op = Smallbank.random_op rng2 ~accounts in
        ignore (exec app2 store2 op.Smallbank.op_proc op.Smallbank.op_args)
      done;
      Iaccf_crypto.Digest32.equal (state_digest store) (state_digest store2))

let prop_transfers_conserve =
  QCheck.Test.make ~name:"transfers conserve the total" ~count:30
    QCheck.(pair (int_bound 10000) (int_range 2 6))
    (fun (seed, accounts) ->
      let app, store = fresh () in
      List.iter
        (fun (op : Smallbank.op) -> ignore (exec app store op.Smallbank.op_proc op.Smallbank.op_args))
        (Smallbank.setup_ops ~accounts ~initial_balance:100);
      let rng = Rng.create seed in
      for _ = 1 to 50 do
        let src = Rng.int rng accounts in
        let dst = (src + 1) mod accounts in
        ignore
          (exec app store "sb/transfer"
             (Smallbank.transfer_args ~src ~dst ~amount:(1 + Rng.int rng 30)))
      done;
      let total =
        List.fold_left
          (fun acc id ->
            match exec app store "sb/balance" (Smallbank.balance_args ~account:id) with
            | Ok b -> acc + int_of_string b
            | Error _ -> acc)
          0
          (List.init accounts Fun.id)
      in
      total = accounts * 200)

let test_smallbank_on_cluster () =
  let cluster = Cluster.make ~n:4 ~app:(Smallbank.app ()) () in
  let client = Cluster.add_client cluster () in
  let receipts = ref [] in
  let submit proc args =
    Client.submit client ~proc ~args
      ~on_complete:(fun oc -> receipts := oc.Client.oc_receipt :: !receipts)
      ()
  in
  List.iter
    (fun (op : Smallbank.op) -> submit op.Smallbank.op_proc op.Smallbank.op_args)
    (Smallbank.setup_ops ~accounts:4 ~initial_balance:100);
  submit "sb/transfer" (Smallbank.transfer_args ~src:0 ~dst:1 ~amount:25);
  submit "sb/balance" (Smallbank.balance_args ~account:1);
  let ok = Cluster.run_until cluster (fun () -> List.length !receipts = 6) in
  check Alcotest.bool "all executed" true ok;
  (* The whole run must audit clean with the SmallBank app. *)
  let auditor =
    Audit.create ~genesis:(Cluster.genesis cluster) ~app:(Smallbank.app ())
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  match
    Audit.audit auditor ~receipts:!receipts
      ~ledger:(Replica.ledger (Cluster.replica cluster 0))
      ~responder:0 ()
  with
  | Ok () -> ()
  | Error v -> Alcotest.failf "audit failed: %s" (Format.asprintf "%a" Audit.pp_verdict v)


(* --- access-controlled bank --- *)

let bank_exec app store caller proc args =
  let output, _ =
    App.execute app
      ~config:
        { Iaccf_types.Config.config_no = 0; members = []; replicas = []; vote_threshold = 1 }
      ~caller ~store ~proc ~args
  in
  App.decode_output output

let test_bank_ownership () =
  let app = Bank.app () in
  let store = Store.create () in
  let _, alice = Iaccf_crypto.Schnorr.keypair_of_seed "alice" in
  let _, bob = Iaccf_crypto.Schnorr.keypair_of_seed "bob" in
  let a = Bank.owner_hex alice and b = Bank.owner_hex bob in
  check Alcotest.(result string string) "alice opens" (Ok a)
    (bank_exec app store alice "bank/open" "100");
  check Alcotest.(result string string) "bob opens" (Ok b)
    (bank_exec app store bob "bank/open" "10");
  (* Bob cannot withdraw from Alice: withdraw only touches the CALLER's
     account, so his withdraw hits his own balance. *)
  check Alcotest.(result string string) "bob withdraws his own" (Ok "5")
    (bank_exec app store bob "bank/withdraw" "5");
  check Alcotest.(result string string) "alice unaffected" (Ok "100")
    (bank_exec app store bob "bank/balance" a);
  (* Transfers are debited from the caller. *)
  check Alcotest.(result string string) "alice pays bob" (Ok "70")
    (bank_exec app store alice "bank/transfer" (b ^ ",30"));
  check Alcotest.(result string string) "bob credited" (Ok "35")
    (bank_exec app store alice "bank/balance" b);
  (* Bob cannot overdraw via transfer. *)
  check Alcotest.bool "overdraft rejected" true
    (Result.is_error (bank_exec app store bob "bank/transfer" (a ^ ",1000")));
  (* Anyone may deposit to anyone. *)
  check Alcotest.(result string string) "bob deposits to alice" (Ok "71")
    (bank_exec app store bob "bank/deposit" (a ^ ",1"))

let test_bank_on_cluster_identity () =
  (* Two clients with distinct keys; the replica-executed procedures must
     see the correct authenticated caller. *)
  let cluster = Cluster.make ~n:4 ~app:(Bank.app ()) () in
  let alice = Cluster.add_client cluster () in
  let bob = Cluster.add_client cluster () in
  let outcome = ref None in
  let submit client proc args =
    outcome := None;
    Client.submit client ~proc ~args ~on_complete:(fun oc -> outcome := Some oc) ();
    let ok = Cluster.run_until cluster (fun () -> !outcome <> None) in
    check Alcotest.bool (proc ^ " completed") true ok;
    (Option.get !outcome).Client.oc_output
  in
  let a = Bank.owner_hex (Client.public_key alice) in
  let b = Bank.owner_hex (Client.public_key bob) in
  check Alcotest.(result string string) "alice opens" (Ok a) (submit alice "bank/open" "50");
  check Alcotest.(result string string) "bob opens" (Ok b) (submit bob "bank/open" "0");
  check Alcotest.(result string string) "alice transfers" (Ok "30")
    (submit alice "bank/transfer" (b ^ ",20"));
  check Alcotest.(result string string) "bob sees funds" (Ok "20")
    (submit bob "bank/balance" b);
  (* Bob cannot drain Alice: his withdraw is of HIS account. *)
  check Alcotest.bool "bob cannot overdraw" true
    (Result.is_error (submit bob "bank/withdraw" "1000"))

let () =
  Alcotest.run "iaccf_app"
    [
      ( "bank",
        [
          Alcotest.test_case "ownership" `Quick test_bank_ownership;
          Alcotest.test_case "on cluster" `Quick test_bank_on_cluster_identity;
        ] );
      ( "smallbank",
        [
          Alcotest.test_case "create/balance" `Quick test_create_and_balance;
          Alcotest.test_case "deposit/withdraw" `Quick test_deposit_withdraw;
          Alcotest.test_case "transfer" `Quick test_transfer;
          Alcotest.test_case "amalgamate" `Quick test_amalgamate;
          Alcotest.test_case "failed tx writes nothing" `Quick
            test_failed_procedures_do_not_write;
          qtest prop_money_conserved;
          qtest prop_transfers_conserve;
          Alcotest.test_case "on cluster + audit" `Quick test_smallbank_on_cluster;
        ] );
    ]
