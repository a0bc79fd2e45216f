(* The paper's introductory scenario (§1): Alice pays Bob $1M; the
   consortium's replicas later collude and rewrite the ledger to erase the
   deposit. Bob holds receipts, engages an auditor, and the enforcer
   punishes the members operating the misbehaving replicas — even though
   ALL replicas misbehaved.

   Run with:  dune exec examples/banking_audit.exe *)

open Iaccf_core
module Smallbank = Iaccf_app.Smallbank
module Request = Iaccf_types.Request
module Genesis = Iaccf_types.Genesis
module Bitmap = Iaccf_util.Bitmap

let () =
  (* --- The honest world: a real cluster run. --- *)
  let cluster = Cluster.make ~n:4 ~app:(Smallbank.app ()) () in
  let client = Cluster.add_client cluster () in
  let receipts = ref [] in
  let submit proc args =
    Client.submit client ~proc ~args
      ~on_complete:(fun oc -> receipts := (proc, oc) :: !receipts)
      ()
  in
  submit "sb/create" (Smallbank.create_args ~account:1 ~checking:2_000_000 ~savings:0);
  submit "sb/create" (Smallbank.create_args ~account:2 ~checking:0 ~savings:0);
  let ok = Cluster.run_until cluster (fun () -> List.length !receipts = 2) in
  assert ok;
  submit "sb/transfer" (Smallbank.transfer_args ~src:1 ~dst:2 ~amount:1_000_000);
  let ok = Cluster.run_until cluster (fun () -> List.length !receipts = 3) in
  assert ok;
  submit "sb/balance" (Smallbank.balance_args ~account:2);
  let ok = Cluster.run_until cluster (fun () -> List.length !receipts = 4) in
  assert ok;
  let find proc = List.assoc proc !receipts in
  let transfer = find "sb/transfer" and balance = find "sb/balance" in
  Printf.printf "Alice pays Bob $1M at ledger index %d; Bob's balance query says %s\n"
    transfer.Client.oc_index
    (match balance.Client.oc_output with Ok v -> "$" ^ v | Error e -> e);

  (* --- The attack: all four replicas collude and rewrite history,
     producing a fully well-formed ledger in which the transfer never
     happened. With every signing key in hand they can do this — but they
     cannot rewrite Bob's receipts. --- *)
  let genesis = Cluster.genesis cluster in
  let sks = List.init 4 (fun i -> (i, Cluster.replica_sk cluster i)) in
  let forge =
    Forge.create ~genesis ~sks ~app:(Smallbank.app ()) ~pipeline:2
      ~checkpoint_interval:1000
  in
  let csk, cpk = Iaccf_crypto.Schnorr.keypair_of_seed "someone-else" in
  let mk proc args seqno =
    Request.make ~sk:csk ~client_pk:cpk ~service:(Genesis.hash genesis)
      ~client_seqno:seqno ~proc ~args ()
  in
  ignore (Forge.add_batch forge [ mk "sb/create" "1,2000000,0" 0 ]);
  ignore (Forge.add_batch forge [ mk "sb/create" "2,0,0" 1 ]);
  (* No transfer! The colluders simply leave it out — and answer Bob's new
     balance query with $0, signed by a full quorum. *)
  let s_balance = Forge.add_batch forge [ mk "sb/balance" "2" 2 ] in
  let forged_balance = Forge.make_receipt forge ~seqno:s_balance ~tx_position:(Some 0) in
  let rewritten = Forge.ledger forge in
  print_endline "The colluding replicas present a rewritten ledger without the transfer.";

  (* --- Bob's linearizability check (§4.1): his transfer receipt and the
     new balance receipt cannot both be true. --- *)
  (match
     Lincheck.check ~app:(Smallbank.app ()) ~genesis
       ~receipts:
         ((* Bob's closed world: every receipt touching the two accounts. *)
          List.filter_map
            (fun (proc, oc) ->
              if proc = "sb/create" then Some oc.Client.oc_receipt else None)
            !receipts
         @ [ transfer.Client.oc_receipt; forged_balance ])
   with
  | Error v ->
      Format.printf "Bob detects a linearizability violation: %a@." Lincheck.pp_violation v
  | Ok () -> failwith "contradictory receipts look consistent");

  (* --- Bob audits: his receipts against the rewritten ledger. --- *)
  let enforcer =
    Enforcer.create ~genesis ~app:(Smallbank.app ())
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  let provider _ = Some { Enforcer.resp_ledger = rewritten; resp_checkpoint = None } in
  match
    Enforcer.investigate enforcer
      ~receipts:[ transfer.Client.oc_receipt; balance.Client.oc_receipt ]
      ~gov_receipts:[] ~provider
  with
  | Enforcer.Members_punished { punished; verdict } ->
      Format.printf "uPoM: %a@." Audit.pp_upom verdict.Audit.v_upom;
      Printf.printf "Blamed replicas: %s (>= f+1 = 2)\n"
        (String.concat ", "
           (List.map string_of_int (Bitmap.to_list verdict.Audit.v_blamed_replicas)));
      Printf.printf "Members punished by the enforcer: %s\n" (String.concat ", " punished)
  | Enforcer.No_misbehavior -> failwith "the rewrite went undetected"
  | Enforcer.Unresponsive_punished _ | Enforcer.Auditor_punished _
  | Enforcer.Receipt_refused _ ->
      failwith "unexpected enforcement outcome"
