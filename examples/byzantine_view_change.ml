(* Fault tolerance walk-through (§3.2): the primary crashes mid-stream; the
   backups time out, run an auditable view change, and the service resumes
   without losing any committed state. The ledger — including the
   view-change and new-view entries — still audits clean afterwards.

   Run with:  dune exec examples/byzantine_view_change.exe *)

open Iaccf_core

let () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  let receipts = ref [] in
  let completed = ref 0 in
  let submit args =
    Client.submit client ~proc:"counter/add" ~args
      ~on_complete:(fun oc ->
        receipts := oc.Client.oc_receipt :: !receipts;
        incr completed)
      ()
  in
  for i = 1 to 10 do
    submit (string_of_int i)
  done;
  let ok = Cluster.run_until cluster (fun () -> !completed = 10) in
  assert ok;
  Printf.printf "10 transactions committed in view %d\n"
    (Replica.view (Cluster.replica cluster 1));

  (* Kill the view-0 primary. *)
  Replica.stop (Cluster.replica cluster 0);
  print_endline "primary (replica 0) crashed";
  for i = 11 to 15 do
    submit (string_of_int i)
  done;
  let ok = Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () -> !completed = 15) in
  assert ok;
  let r1 = Cluster.replica cluster 1 in
  Printf.printf "service recovered: 5 more transactions committed in view %d\n"
    (Replica.view r1);
  Printf.printf "counter value: %s (= 1+2+...+15)\n"
    (Option.get (Iaccf_kv.State.find_opt "counter" (Iaccf_kv.Store.map (Replica.store r1))));

  (* The surviving ledger still audits clean against every receipt,
     including across the view change. *)
  let auditor =
    Audit.create
      ~genesis:(Cluster.genesis cluster)
      ~app:(App.create Cluster.counter_app_procs)
      ~pipeline:(Cluster.params cluster).Replica.pipeline
      ~checkpoint_interval:(Cluster.params cluster).Replica.checkpoint_interval
  in
  match
    Audit.audit auditor ~receipts:!receipts ~ledger:(Replica.ledger r1) ~responder:1 ()
  with
  | Ok () ->
      print_endline
        "audit: the post-view-change ledger is well-formed and consistent with all receipts"
  | Error v -> Format.kasprintf failwith "audit: %a" Audit.pp_verdict v
