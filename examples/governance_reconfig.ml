(* Governance walk-through (§5): members run a referendum that replaces a
   replica; clients keep verifying receipts across the configuration change
   using the governance sub-ledger.

   Run with:  dune exec examples/governance_reconfig.exe *)

open Iaccf_core
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis

let wait cluster result =
  let ok = Cluster.run_until cluster (fun () -> !result <> None) in
  assert ok;
  Option.get !result

let submit cluster client proc args =
  let result = ref None in
  Client.submit client ~proc ~args ~on_complete:(fun oc -> result := Some oc) ();
  wait cluster result

let () =
  let cluster = Cluster.make ~n:4 () in
  let client = Cluster.add_client cluster () in
  ignore (submit cluster client "counter/add" "5");
  Printf.printf "configuration 0: %d replicas\n"
    (Config.n_replicas (Replica.config (Cluster.replica cluster 0)));

  (* Replica 4 will replace replica 3. It is spawned passive. *)
  let r4 = Cluster.spawn_replica cluster ~id:4 in
  let base = (Cluster.genesis cluster).Genesis.initial_config in
  let next =
    Cluster.make_next_config cluster ~add_replicas:[ 4 ] ~remove_replicas:[ 3 ]
      ~base ()
  in

  (* A member proposes; a majority votes. *)
  let members = Cluster.members cluster in
  let proposer = Cluster.add_member_client cluster (List.hd members) in
  let oc = submit cluster proposer "gov/propose" (Config.serialize next) in
  let proposal_id = Result.get_ok oc.Client.oc_output in
  Printf.printf "proposal %s submitted\n" (String.sub proposal_id 0 8);
  List.iteri
    (fun i m ->
      if i < 3 then begin
        let voter = Cluster.add_member_client cluster m in
        let oc = submit cluster voter "gov/vote" proposal_id in
        Printf.printf "member-%d votes: %s\n" i
          (match oc.Client.oc_output with Ok s -> s | Error e -> e)
      end)
    members;

  (* 2P end-of-config batches, a checkpoint, P start-of-config batches. *)
  let ok =
    Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () ->
        (Replica.config (Cluster.replica cluster 0)).Config.config_no = 1)
  in
  assert ok;
  Printf.printf "configuration 1 active: %d replicas\n"
    (Config.n_replicas (Replica.config (Cluster.replica cluster 0)));

  (* The new replica fetches the ledger, replays it, and joins. *)
  Replica.join r4 ~from:0;
  let ok = Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () -> Replica.active r4) in
  assert ok;
  Printf.printf "replica 4 joined (caught up to seqno %d)\n" (Replica.next_seqno r4 - 1);
  Cluster.run cluster ~ms:2000.0;
  assert (not (Replica.active (Cluster.replica cluster 3)));
  print_endline "replica 3 retired";

  (* A fresh client that only knows the genesis still verifies: it fetches
     the governance sub-ledger receipts and derives configuration 1. *)
  let fresh = Cluster.add_client cluster () in
  let oc = submit cluster fresh "counter/add" "7" in
  Printf.printf "fresh client: counter = %s, verified under configuration %d\n"
    (Result.get_ok oc.Client.oc_output)
    (Govchain.latest_config (Client.govchain fresh)).Config.config_no;
  Printf.printf "governance sub-ledger receipts held by the client: %d\n"
    (List.length (Govchain.receipts (Client.govchain fresh)))
