(* The socket leg of the traced closed-audit run: a single-replica fleet
   (one serve process) reached over a Unix-domain socket by the socket
   driver's four signing clients, 16 requests in flight, clients
   verifying receipts. It is the only path through the wire codec,
   framing, endpoint and serve runtime, and gives the net.* per-layer
   numbers. It is not an end-to-end workload: two processes on a shared
   2-core VM read too unsteadily (see NOTES.md).

   The serve process is this executable re-invoked; on SIGTERM it writes
   its metrics snapshot and its ledger as a package, which is audited. *)

open Iaccf_core
module C = Common
module Obs = Iaccf_obs.Obs
module Smallbank = Iaccf_app.Smallbank
module Rng = Iaccf_util.Rng
module Package = Iaccf_storage.Package
module Manifest = Iaccf_net.Manifest
module Serve = Iaccf_net.Serve
module Supervisor = Iaccf_net.Supervisor
module Driver = Iaccf_net.Driver

let accounts = 200
let n_clients = 4
let per_client = 4
let requests = 2_000

(* The serve process body: the library's serve loop, then the ledger as
   a package next to the metrics snapshot. *)
let serve_main ~manifest ~id ~package =
  match Manifest.load manifest with
  | Error e ->
      prerr_endline e;
      2
  | Ok m ->
      let t = Serve.create ~manifest:m ~id () in
      let handler = Sys.Signal_handle (fun _ -> Serve.request_stop t) in
      Sys.set_signal Sys.sigterm handler;
      Sys.set_signal Sys.sigint handler;
      ignore (Serve.run_until t (fun () -> false));
      Serve.shutdown
        ~metrics_file:(Filename.concat m.Manifest.dir (Printf.sprintf "replica-%d.metrics" id))
        t;
      Package.write_file package (Package.of_ledger (Replica.ledger (Serve.replica t)));
      0

let read_snapshot file =
  match open_in file with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      Obs.parse_snapshot (really_input_string ic (in_channel_length ic))

let snapshot_int snap key =
  match List.assoc_opt key snap with
  | Some v -> ( try int_of_float (float_of_string v) with Failure _ -> 0)
  | None -> 0

(* Run the leg; the net.* per-layer values and whether its checks held.
   The run directory is relative (socket paths must stay short) and is
   kept, with the replica log and metrics snapshot, whenever a check
   fails or a message was dropped. *)
let run ~opts ~spans =
  let dir = C.scratch_dir opts "socket" in
  let m = Manifest.local ~seed:opts.C.seed ~n:1 ~app:"smallbank" ~dir () in
  let mfile = Filename.concat dir "manifest.json" in
  Manifest.save m mfile;
  let package = Filename.concat dir "replica-0.iapkg" in
  let children =
    Supervisor.spawn_fleet ~manifest:m ~serve_argv:(fun ~id ->
        [| Sys.executable_name; "__serve"; mfile; string_of_int id; package |])
  in
  let exits = ref None in
  let stop driver =
    if !exits = None then begin
      Option.iter Driver.close driver;
      exits := Some (Supervisor.shutdown children)
    end
  in
  Fun.protect ~finally:(fun () -> stop None) @@ fun () ->
  if not (Supervisor.wait_ready m) then failwith ("socket fleet not ready; see " ^ dir);
  let driver = Driver.connect ~clients:n_clients ~verify_receipts:true m in
  let clients = Driver.clients driver in
  let drive pred = Driver.run_until ~timeout_ms:120_000.0 driver pred in
  C.create_accounts ~run_until:drive ~clients ~per_client ~accounts;
  let w =
    C.closed_loop ~spans ~span:"driver.submit" ~clients ~per_client ~total:requests
      ~rng:(Rng.create ((opts.C.seed * 7919) + 23))
      ~accounts ~now:C.wall ~drive
  in
  stop (Some driver);
  let clean_exit =
    match !exits with
    | Some (_ :: _ as e) -> List.for_all (fun (_, st) -> st = Unix.WEXITED 0) e
    | _ -> false
  in
  let genesis = Cluster.standalone_genesis ~seed:opts.C.seed ~n:1 () in
  let params = Serve.socket_params in
  let audit_ok =
    match Package.read_file package with
    | exception Package.Package_error e ->
        Printf.printf "socket leg: package: %s\n%!" e;
        false
    | pkg ->
        let auditor =
          Audit.create ~genesis ~app:(Smallbank.app ()) ~pipeline:params.Replica.pipeline
            ~checkpoint_interval:params.Replica.checkpoint_interval
        in
        Audit.audit auditor ~receipts:[] ~ledger:(Package.to_ledger pkg) ~responder:0 () = Ok ()
  in
  (* Driver-side socket counters plus the serve process's snapshot, over
     the fleet's whole life: the snapshot cannot be split at the window. *)
  let dobs = Driver.obs driver in
  let snap = read_snapshot (Filename.concat dir "replica-0.metrics") in
  let both key = Obs.counter_value dobs key + snapshot_int snap key in
  let dropped =
    List.fold_left
      (fun acc (k, _) ->
        if String.length k > 12 && String.sub k 0 12 = "net.dropped." then
          acc + snapshot_int snap k
        else acc)
      (C.counter_prefix_sum dobs "net.dropped.")
      snap
  in
  let correct =
    C.report_checks
      [
        ("socket leg: committed = total", w.C.w_committed = w.C.w_attempted);
        ("socket leg: serve process exited cleanly", clean_exit);
        ("socket leg: serve ledger audits Ok", audit_ok);
      ]
  in
  if correct && dropped = 0 then C.rm_rf dir
  else Printf.printf "socket leg: run directory kept: %s (%d dropped)\n%!" dir dropped;
  let life_txs = w.C.w_committed + accounts in
  ( [
      ("net.bytes_per_tx", Stats.ratio_i (both "net.sock.bytes_out") life_txs);
      ("net.frames_per_tx", Stats.ratio_i (both "net.sock.frames_out") life_txs);
      ("driver.submit_us", Spans.mean_us spans "driver.submit");
      ("net.dropped", float_of_int dropped);
      ("net.connect_retries", float_of_int (both "net.sock.connect_retries"));
    ],
    correct )
