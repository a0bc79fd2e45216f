(* Shared reconfiguration helpers for the governance and audit suites:
   submit a transaction and wait for it, and run a referendum (§5.1). *)

open Iaccf_core
module Config = Iaccf_types.Config

let submit cluster client proc args =
  let result = ref None in
  Client.submit client ~proc ~args
    ~on_complete:(fun oc -> result := Some oc)
    ();
  let ok = Cluster.run_until cluster (fun () -> !result <> None) in
  if not ok then begin
    let states =
      String.concat " "
        (List.map
           (fun r ->
             Printf.sprintf "[%d:act=%b v=%d s=%d lc=%d pend=%d]" (Replica.id r)
               (Replica.active r) (Replica.view r) (Replica.next_seqno r)
               (Replica.last_committed r) (Replica.pending_requests r))
           (Cluster.replicas cluster))
    in
    Alcotest.failf "tx %s(%s) timed out (in-flight %d, failed-verify %d) %s" proc
      args (Client.in_flight client) (Client.failed_verifications client) states
  end;
  Option.get !result

(* Run a full referendum installing [next]; returns the proposal id. *)
let pass_referendum cluster next =
  let members = Cluster.members cluster in
  let proposer = Cluster.add_member_client cluster (List.hd members) in
  let oc = submit cluster proposer "gov/propose" (Config.serialize next) in
  let id =
    match oc.Client.oc_output with
    | Ok id -> id
    | Error e -> Alcotest.failf "propose failed: %s" e
  in
  let threshold = 3 in
  List.iteri
    (fun i m ->
      if i < threshold then begin
        let voter = Cluster.add_member_client cluster m in
        let oc = submit cluster voter "gov/vote" id in
        match oc.Client.oc_output with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "vote %d failed: %s" i e
      end)
    members;
  id

let wait_config cluster ~config_no ~on =
  Cluster.run_until cluster ~timeout_ms:120_000.0 (fun () ->
      List.for_all
        (fun id -> (Replica.config (Cluster.replica cluster id)).Config.config_no = config_no)
        on)
