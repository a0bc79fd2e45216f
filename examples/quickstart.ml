(* Quickstart: a 4-replica IA-CCF service executing counter transactions,
   returning receipts that the client verifies offline.

   Run with:  dune exec examples/quickstart.exe *)

open Iaccf_core

let () =
  (* A consortium of 4 members, each operating one replica. *)
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in

  (* Submit a few transactions; each completion carries a receipt. *)
  let receipts = ref [] in
  List.iter
    (fun delta ->
      Client.submit client ~proc:"counter/add" ~args:delta
        ~on_complete:(fun oc ->
          receipts := oc.Client.oc_receipt :: !receipts;
          Printf.printf "counter/add %s -> output %s at ledger index %d (latency %.2f ms)\n"
            delta
            (match oc.Client.oc_output with Ok v -> v | Error e -> "error: " ^ e)
            oc.Client.oc_index oc.Client.oc_latency_ms)
        ())
    [ "10"; "20"; "12" ];
  let ok = Cluster.run_until cluster (fun () -> List.length !receipts = 3) in
  assert ok;

  (* Receipts are universally verifiable: anyone holding the genesis can
     check them without talking to the service (Alg. 3). *)
  let genesis = Cluster.genesis cluster in
  let config = genesis.Iaccf_types.Genesis.initial_config in
  let service = Iaccf_types.Genesis.hash genesis in
  List.iter
    (fun r ->
      match Receipt.verify ~config ~service r with
      | Ok () ->
          Format.printf "verified: %a (%d bytes)@." Receipt.pp_receipt r
            (Receipt.size_bytes r)
      | Error e -> failwith ("invalid receipt: " ^ e))
    !receipts;

  (* The ledger binds everything: an auditor can replay it from genesis. *)
  let auditor =
    Audit.create ~genesis
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  match
    Audit.audit auditor ~receipts:!receipts
      ~ledger:(Replica.ledger (Cluster.replica cluster 0))
      ~responder:0 ()
  with
  | Ok () -> print_endline "audit: ledger is consistent with all receipts"
  | Error v -> Format.kasprintf failwith "audit: %a" Audit.pp_verdict v
