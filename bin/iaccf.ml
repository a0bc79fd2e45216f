(* iaccf — command-line driver for the IA-CCF reproduction.

     iaccf run             simulate a cluster under SmallBank load
     iaccf load            open-loop arrivals + admission control (saturation)
     iaccf status          report a transaction ID's status (GET /app/tx shape)
     iaccf observe         serve client-verified reads from observer replicas
     iaccf stats           run a workload and print the full metrics breakdown
     iaccf ledger          run a workload and dump the resulting ledger
     iaccf audit           run the ledger-rewrite attack and audit it
     iaccf export-package  write a ledger package for offline audit
     iaccf keys            derive and print the deterministic key material

   All commands run the full system (real crypto, simulated network).
   [--persist DIR] makes every replica write its ledger through to a
   durable segmented store; [audit --package FILE] audits evidence from
   disk with no cluster in the process at all. *)

open Cmdliner
open Iaccf_core
module Smallbank = Iaccf_app.Smallbank
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Latency = Iaccf_sim.Latency
module Genesis = Iaccf_types.Genesis
module Request = Iaccf_types.Request
module Bitmap = Iaccf_util.Bitmap
module Store = Iaccf_storage.Store
module Package = Iaccf_storage.Package
module Snapshot = Iaccf_statesync.Snapshot
module Obs = Iaccf_obs.Obs
module Critical_path = Iaccf_obs.Critical_path
module Profile = Iaccf_crypto.Profile
module Report = Iaccf_report.Report

let replicas_arg =
  Arg.(value & opt int 4 & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Number of replicas.")

let txs_arg =
  Arg.(value & opt int 100 & info [ "t"; "txs" ] ~docv:"COUNT" ~doc:"Transactions to run.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic simulation seed.")

let latency_arg =
  let model =
    Arg.enum [ ("cluster", `Cluster); ("lan", `Lan); ("wan", `Wan) ]
  in
  Arg.(
    value
    & opt model `Cluster
    & info [ "latency" ] ~docv:"MODEL" ~doc:"Network model: cluster, lan, or wan.")

let persist_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "persist" ] ~docv:"DIR"
        ~doc:
          "Persist every replica's ledger to a durable segmented store under \
           $(docv)/replica-<id>/.")

let fsync_arg =
  let policy =
    Arg.enum [ ("none", `None); ("interval", `Interval); ("always", `Always) ]
  in
  Arg.(
    value
    & opt policy `Interval
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:"Durability policy for --persist: none, interval, or always.")

let segment_kb_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "segment-kb" ] ~docv:"KB" ~doc:"Segment file size for --persist.")

let snapshot_interval_arg =
  Arg.(
    value
    & opt int 0
    & info [ "snapshot-interval" ] ~docv:"SEQNOS"
        ~doc:
          "With --persist, write a durable checkpoint snapshot whenever a \
           checkpoint at a multiple of $(docv) sequence numbers is sealed \
           (use a multiple of the checkpoint interval, e.g. 50). 0 disables \
           snapshots.")

let prune_arg =
  Arg.(
    value & flag
    & info [ "prune" ]
        ~doc:
          "After the run, compact each replica's on-disk store: export the \
           prefix behind the newest durable snapshot as an audit package \
           and drop its segments. Requires --persist and \
           --snapshot-interval.")

let persist_config ~persist ~fsync ~segment_kb =
  Option.map
    (fun dir ->
      {
        (Store.default_config ~dir) with
        Store.segment_bytes = segment_kb * 1024;
        fsync =
          (match fsync with
          | `None -> Store.No_fsync
          | `Interval -> Store.Fsync_interval 64
          | `Always -> Store.Fsync_always);
      })
    persist

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a deterministic key/value metrics snapshot (counters, \
           gauges, per-phase latency histograms) to $(docv) after the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a protocol trace to $(docv): Chrome trace_event JSON \
           (loadable in Perfetto / chrome://tracing), or JSONL if $(docv) \
           ends in .jsonl.")

(* An instrumented registry when any observability output was requested:
   metrics machinery is always worth having once we pay for a registry at
   all (the trace viewer is more useful with the commit marks), tracing
   only when a trace file will actually be written. *)
let make_obs ~metrics ~trace =
  match (metrics, trace) with
  | None, None -> None
  | _ -> Some (Obs.create ~metrics:true ~tracing:(trace <> None) ())

let write_obs_outputs ?obs ~cluster ~metrics ~trace () =
  match obs with
  | None -> ()
  | Some obs ->
      (* Drain in-flight batches so every span in the export is closed:
         the workload driver returns the moment the client completes,
         which can leave the last commit round open on lagging backups. *)
      Cluster.run cluster ~ms:5_000.0;
      Option.iter
        (fun file ->
          Obs.write_metrics obs file;
          Printf.printf "metrics:             %d keys -> %s\n"
            (List.length (Obs.snapshot obs)) file)
        metrics;
      Option.iter
        (fun file ->
          Obs.write_trace_file obs file;
          Printf.printf "trace:               %d events -> %s\n"
            (Obs.event_count obs) file)
        trace

let latency_fn = function
  | `Cluster -> Latency.dedicated_cluster
  | `Lan -> Latency.lan
  | `Wan -> Latency.wan

let make_cluster ?persist ?obs ?profile ?(snapshot_interval = 0) ~n ~seed ~latency
    () =
  let params = { Replica.default_params with Replica.snapshot_interval } in
  Cluster.make ~seed ~n ~params ~latency:(latency_fn latency)
    ~app:(Smallbank.app ()) ?persist ?obs ?profile ()

(* A client identity whose requests are not already in the (possibly
   restored) ledger: replicas deduplicate executed requests by hash, so a
   continued run must not resubmit under a previous run's key and seqnos. *)
let fresh_client cluster =
  let used = Hashtbl.create 16 in
  Ledger.iteri
    (fun _ e ->
      match e with
      | Entry.Tx tx ->
          Hashtbl.replace used
            (Iaccf_crypto.Schnorr.public_key_to_bytes
               tx.Iaccf_types.Batch.request.Request.client_pk)
            ()
      | _ -> ())
    (Replica.ledger (Cluster.replica cluster 0));
  let rec go k =
    if k > 1024 then failwith "no fresh client identity available";
    let c = Cluster.add_client cluster () in
    if Hashtbl.mem used (Iaccf_crypto.Schnorr.public_key_to_bytes (Client.public_key c))
    then go (k + 1)
    else c
  in
  go 0

let drive_smallbank ?client cluster ~txs ~seed =
  let client =
    match client with Some c -> c | None -> Cluster.add_client cluster ()
  in
  let rng = Iaccf_util.Rng.create (seed + 100) in
  let accounts = 20 in
  let ops =
    Smallbank.setup_ops ~accounts ~initial_balance:1000
    @ List.init txs (fun _ -> Smallbank.random_op rng ~accounts)
  in
  let total = List.length ops in
  let pending = ref ops in
  let receipts = ref [] in
  let _, completed =
    Iaccf_load.Pump.closed_loop ~total ~concurrency:16
      ~submit:(fun ~seq:_ ~on_complete ->
        match !pending with
        | [] -> ()
        | op :: rest ->
            pending := rest;
            Client.submit client ~proc:op.Smallbank.op_proc
              ~args:op.Smallbank.op_args
              ~on_complete:(fun oc ->
                receipts := oc.Client.oc_receipt :: !receipts;
                on_complete ())
              ())
      ()
  in
  let ok =
    Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () -> !completed >= total)
  in
  if not ok then failwith "workload did not complete";
  (client, List.rev !receipts)

let run_cmd =
  let run n txs seed latency persist fsync segment_kb snapshot_interval prune
      metrics trace =
    let t0 = Unix.gettimeofday () in
    let persist = persist_config ~persist ~fsync ~segment_kb in
    let obs = make_obs ~metrics ~trace in
    let cluster =
      make_cluster ?persist ?obs ~snapshot_interval ~n ~seed ~latency ()
    in
    let restored =
      match Cluster.storage cluster 0 with
      | Some store -> (Store.recovery store).Store.ri_entries
      | None -> 0
    in
    if restored > 0 then
      Printf.printf "restored:            %d persisted entries replayed per replica\n"
        restored;
    let client =
      if restored > 0 then Some (fresh_client cluster) else None
    in
    let client, receipts = drive_smallbank ?client cluster ~txs ~seed in
    Cluster.sync_storage cluster;
    let wall = Unix.gettimeofday () -. t0 in
    let r0 = Cluster.replica cluster 0 in
    let st = Replica.stats r0 in
    Printf.printf "replicas:            %d (f=%d)\n" n
      (Iaccf_types.Config.f (Replica.config r0));
    Printf.printf "transactions:        %d committed in %.2fs (%.0f tx/s)\n"
      st.Replica.txs_committed wall
      (float_of_int st.Replica.txs_committed /. wall);
    Printf.printf "batches:             %d\n" st.Replica.batches_committed;
    Printf.printf "checkpoints:         %d\n" st.Replica.checkpoints_taken;
    Printf.printf "ledger entries:      %d (%d bytes)\n"
      (Ledger.length (Replica.ledger r0))
      (Ledger.total_bytes (Replica.ledger r0));
    Printf.printf "receipts verified:   %d (avg latency %.2f ms)\n"
      (Client.completed client)
      (let l = Client.latencies_ms client in
       List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)));
    Printf.printf "ledger root:         %s\n"
      (Iaccf_crypto.Digest32.to_hex (Ledger.m_root (Replica.ledger r0)));
    (match Cluster.storage cluster 0 with
    | Some store ->
        Printf.printf "persisted:           %d entries, %d segments, %d bytes (%s)\n"
          (Store.length store) (Store.segments store) (Store.disk_bytes store)
          (Store.config store).Store.dir;
        if snapshot_interval > 0 then
          Printf.printf "snapshots:           %d on disk (newest cp %s)\n"
            (List.length (Snapshot.list ~dir:(Store.config store).Store.dir))
            (match Snapshot.list ~dir:(Store.config store).Store.dir with
            | cp :: _ -> string_of_int cp
            | [] -> "none")
    | None -> ());
    if prune then begin
      if persist = None then
        failwith "--prune requires --persist (there is no on-disk store to compact)";
      List.iter
        (fun r ->
          match Replica.storage r with
          | None -> ()
          | Some store ->
              let before = Store.disk_bytes store in
              let dropped = Replica.prune r in
              if dropped > 0 then
                Printf.printf
                  "pruned:              replica %d dropped %d entries \
                   (%d -> %d bytes on disk, audit package %s)\n"
                  (Replica.id r) dropped before (Store.disk_bytes store)
                  (Store.package_path store)
              else
                Printf.printf
                  "pruned:              replica %d nothing to drop (no \
                   whole segment behind a durable snapshot)\n"
                  (Replica.id r))
        (Cluster.replicas cluster)
    end;
    write_obs_outputs ?obs ~cluster ~metrics ~trace ();
    (* With tracing on, the events also carry everything the critical-path
       reconstructor needs: print where each request's latency went. *)
    (match (obs, trace) with
    | Some obs, Some _ ->
        let segs = Critical_path.of_events (Obs.events obs) in
        if segs <> [] then print_string (Critical_path.render segs)
    | _ -> ());
    Cluster.close_storage cluster;
    ignore receipts
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a simulated IA-CCF cluster under SmallBank load.")
    Term.(
      const run $ replicas_arg $ txs_arg $ seed_arg $ latency_arg $ persist_arg
      $ fsync_arg $ segment_kb_arg $ snapshot_interval_arg $ prune_arg
      $ metrics_arg $ trace_arg)

let stats_cmd =
  let phase_rows =
    [
      ("pre-prepare -> prepared", "lat.preprepare_to_prepared_ms");
      ("prepared -> committed", "lat.prepared_to_commit_ms");
      ("pre-prepare -> committed", "lat.preprepare_to_commit_ms");
      ("commit -> receipt", "lat.commit_to_receipt_ms");
      ("request end-to-end", "lat.request_e2e_ms");
    ]
  in
  let run n txs seed latency persist fsync segment_kb metrics trace =
    let persist = persist_config ~persist ~fsync ~segment_kb in
    let obs = Obs.create ~metrics:true ~tracing:(trace <> None) () in
    let cluster = make_cluster ?persist ~obs ~n ~seed ~latency () in
    let _ = drive_smallbank cluster ~txs ~seed in
    Cluster.run cluster ~ms:5_000.0;
    Cluster.sync_storage cluster;
    let c = Obs.counter_value obs in
    Printf.printf "phase latencies (virtual ms, nearest-rank percentiles):\n";
    List.iter
      (fun (label, name) ->
        let h = Obs.histogram obs name in
        if Obs.Histogram.count h > 0 then
          Printf.printf "  %-26s n %5d  p50 %8.2f  p90 %8.2f  p99 %8.2f  max %8.2f\n"
            label (Obs.Histogram.count h)
            (Obs.Histogram.percentile h 0.50)
            (Obs.Histogram.percentile h 0.90)
            (Obs.Histogram.percentile h 0.99)
            (Obs.Histogram.max_value h))
      phase_rows;
    Printf.printf "signatures:\n";
    for id = 0 to n - 1 do
      Printf.printf "  replica %d: made %d, verified %d, macs %d\n" id
        (c (Printf.sprintf "replica.%d.sigs_made" id))
        (c (Printf.sprintf "replica.%d.sigs_verified" id))
        (c (Printf.sprintf "replica.%d.macs_computed" id))
    done;
    Printf.printf "network: sent %d, delivered %d, dropped %d cut / %d prob / %d unregistered\n"
      (c "net.sent") (c "net.delivered") (c "net.dropped.cut")
      (c "net.dropped.prob") (c "net.dropped.unregistered");
    if persist <> None then
      Printf.printf "storage: %d appends (%d bytes), %d fsyncs, %d truncates\n"
        (c "storage.appends") (c "storage.append_bytes") (c "storage.fsyncs")
        (c "storage.truncates");
    write_obs_outputs ~obs ~cluster ~metrics ~trace ();
    Cluster.close_storage cluster
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a SmallBank workload with full instrumentation and print the \
          per-phase latency breakdown, signature counts, and network/storage \
          counters from the observability registry.")
    Term.(
      const run $ replicas_arg $ txs_arg $ seed_arg $ latency_arg $ persist_arg
      $ fsync_arg $ segment_kb_arg $ metrics_arg $ trace_arg)

let ledger_cmd =
  let run n txs seed =
    let cluster = make_cluster ~n ~seed ~latency:`Cluster () in
    let _ = drive_smallbank cluster ~txs ~seed in
    let r0 = Cluster.replica cluster 0 in
    Ledger.iteri
      (fun i e -> Format.printf "%6d  %a@." i Entry.pp e)
      (Replica.ledger r0)
  in
  Cmd.v
    (Cmd.info "ledger" ~doc:"Run a workload and dump every ledger entry.")
    Term.(const run $ replicas_arg $ txs_arg $ seed_arg)

(* The ledger-rewrite attack: run an honest cluster so the client holds
   receipts, then have every replica collude to rebuild a ledger without
   the client's transactions. Returns the auditor's evidence. *)
let rewrite_attack ~n ~seed =
  let cluster = make_cluster ~n ~seed ~latency:`Cluster () in
  let _, receipts = drive_smallbank cluster ~txs:20 ~seed in
  let genesis = Cluster.genesis cluster in
  Printf.printf "honest run complete: %d receipts held by the client\n"
    (List.length receipts);
  let sks = List.init n (fun i -> (i, Cluster.replica_sk cluster i)) in
  let forge =
    Forge.create ~genesis ~sks ~app:(Smallbank.app ()) ~pipeline:2
      ~checkpoint_interval:1000
  in
  let csk, cpk = Iaccf_crypto.Schnorr.keypair_of_seed "cli-other" in
  ignore
    (Forge.add_batch forge
       [
         Request.make ~sk:csk ~client_pk:cpk ~service:(Genesis.hash genesis)
           ~proc:"sb/create" ~args:"99,1,1" ();
       ]);
  print_endline "colluding replicas produced a rewritten ledger";
  (genesis, receipts, Forge.ledger forge)

let print_outcome = function
  | Enforcer.Members_punished { punished; verdict } ->
      Format.printf "uPoM: %a@." Audit.pp_upom verdict.Audit.v_upom;
      Printf.printf "blamed replicas: %s\n"
        (String.concat ","
           (List.map string_of_int (Bitmap.to_list verdict.Audit.v_blamed_replicas)));
      Printf.printf "punished members: %s\n" (String.concat "," punished)
  | Enforcer.No_misbehavior -> print_endline "audit: no misbehavior detected"
  | _ -> print_endline "unexpected outcome"

let investigate ~genesis ~receipts ~ledger ~checkpoint () =
  let params = Replica.default_params in
  let enforcer =
    Enforcer.create ~genesis ~app:(Smallbank.app ())
      ~pipeline:params.Replica.pipeline
      ~checkpoint_interval:params.Replica.checkpoint_interval
  in
  Enforcer.investigate enforcer ~receipts ~gov_receipts:[]
    ~provider:(fun _ ->
      Some { Enforcer.resp_ledger = ledger; resp_checkpoint = checkpoint })

let package_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "package" ] ~docv:"FILE"
        ~doc:
          "Audit a ledger package from disk (see export-package) instead of \
           running the in-process attack scenario.")

let audit_cmd =
  let run n seed package =
    match package with
    | Some file ->
        (* Offline path: every audit input comes from the package file. *)
        let pkg = Package.read_file file in
        let genesis = Package.genesis pkg in
        let ledger = Package.to_ledger pkg in
        let receipts = List.map Receipt.deserialize pkg.Package.pkg_receipts in
        Printf.printf "package: %d entries, %d receipts, root %s\n"
          (Ledger.length ledger) (List.length receipts)
          (Iaccf_crypto.Digest32.to_hex pkg.Package.pkg_m_root);
        print_outcome
          (investigate ~genesis ~receipts ~ledger
             ~checkpoint:pkg.Package.pkg_checkpoint ())
    | None ->
        let genesis, receipts, forged = rewrite_attack ~n ~seed in
        print_outcome
          (investigate ~genesis ~receipts ~ledger:forged ~checkpoint:None ())
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Demonstrate auditing: all replicas rewrite history; blame is \
          assigned. With --package, audit evidence from a file on disk.")
    Term.(const run $ replicas_arg $ seed_arg $ package_arg)

let export_package_cmd =
  let run n txs seed out from =
    match from with
    | Some dir ->
        (* Package a persisted store (produced by `run --persist`). The
           store is opened read-only so exporting leaves the on-disk
           evidence byte-identical. *)
        let store = Store.open_store ~readonly:true (Store.default_config ~dir) in
        let ri = Store.recovery store in
        Printf.printf
          "read %d entries from %d segments (%d torn frames, %d damaged bytes skipped)\n"
          ri.Store.ri_entries ri.Store.ri_segments ri.Store.ri_torn_frames
          ri.Store.ri_torn_bytes;
        (* A pruned store only has entries from its base onward; the dropped
           prefix is recovered from the audit package prune wrote, so the
           export still covers the full history. *)
        let base = Store.pruned_before store in
        let prefix =
          if base = 0 then []
          else
            (Package.read_file (Store.package_path store)).Package.pkg_entries
            |> List.filteri (fun i _ -> i < base)
        in
        let pkg =
          Package.of_entries
            (prefix
            @ List.init (Store.length store - base) (fun i ->
                  Store.get store (base + i)))
        in
        Store.close store;
        Package.write_file out pkg;
        Printf.printf "wrote %s: %d entries, root %s\n" out
          (List.length pkg.Package.pkg_entries)
          (Iaccf_crypto.Digest32.to_hex pkg.Package.pkg_m_root)
    | None ->
        (* Attack bundle: the forged ledger plus the honest client's
           receipts — exactly what an auditor would hold. *)
        ignore txs;
        let genesis, receipts, forged = rewrite_attack ~n ~seed in
        ignore genesis;
        let pkg =
          Package.of_ledger ~receipts:(List.map Receipt.serialize receipts) forged
        in
        Package.write_file out pkg;
        Printf.printf "wrote %s: %d entries, %d receipts, root %s\n" out
          (List.length pkg.Package.pkg_entries)
          (List.length pkg.Package.pkg_receipts)
          (Iaccf_crypto.Digest32.to_hex pkg.Package.pkg_m_root)
  in
  let out_arg =
    Arg.(
      value
      & opt string "ledger.iapkg"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Package file to write.")
  in
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"DIR"
          ~doc:
            "Export a persisted replica store (e.g. DIR/replica-0 from `run \
             --persist DIR`) instead of the attack scenario.")
  in
  Cmd.v
    (Cmd.info "export-package"
       ~doc:
         "Write a single-file ledger package for offline audit: by default \
          the ledger-rewrite attack bundle (forged ledger + honest receipts); \
          with --from, the contents of a persisted store.")
    Term.(const run $ replicas_arg $ txs_arg $ seed_arg $ out_arg $ from_arg)

let keys_cmd =
  let run n seed =
    let cluster = make_cluster ~n ~seed ~latency:`Cluster () in
    let genesis = Cluster.genesis cluster in
    Printf.printf "service (H(gt)): %s\n"
      (Iaccf_crypto.Digest32.to_hex (Genesis.hash genesis));
    List.iter
      (fun (r : Iaccf_types.Config.replica_info) ->
        Printf.printf "replica %d (operated by %s): %s\n" r.Iaccf_types.Config.replica_id
          r.Iaccf_types.Config.operator
          (Iaccf_util.Hex.encode
             (Iaccf_crypto.Schnorr.public_key_to_bytes r.Iaccf_types.Config.replica_pk)))
      genesis.Genesis.initial_config.Iaccf_types.Config.replicas
  in
  Cmd.v
    (Cmd.info "keys" ~doc:"Print the deterministic service and replica keys.")
    Term.(const run $ replicas_arg $ seed_arg)

let chaos_cmd =
  let open Iaccf_chaos in
  let suite_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "suite" ] ~docv:"SUITE"
          ~doc:"Scenario suite to run: core, byzantine, recovery, or all.")
  in
  let seeds_arg =
    Arg.(
      value
      & opt string "1..3"
      & info [ "seeds" ] ~docv:"A..B"
          ~doc:"Inclusive seed range (or a single seed). Every cell is \
                deterministic in its seed.")
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Run only the named scenario (as printed in result lines and \
                failure reproducers).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 0
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the sweep (default: one per core, capped).")
  in
  let chaos_metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print each cell's deterministic metrics snapshot after its \
                result line.")
  in
  let run suite seeds scenario jobs metrics =
    let scenarios =
      match scenario with
      | Some name -> (
          match Scenarios.find name with
          | Some sc -> [ sc ]
          | None ->
              Printf.eprintf "iaccf chaos: unknown scenario %S; known:\n" name;
              List.iter
                (fun sc -> Printf.eprintf "  %s\n" sc.Scenario.sc_name)
                Scenarios.all;
              exit 2)
      | None -> (
          match (suite, Scenario.suite_of_name suite) with
          | "all", _ -> Scenarios.all
          | _, Some s -> Scenarios.suite s
          | _, None ->
              Printf.eprintf
                "iaccf chaos: unknown suite %S (core|byzantine|recovery|all)\n"
                suite;
              exit 2)
    in
    let seeds =
      try Runner.seed_range seeds
      with _ ->
        Printf.eprintf "iaccf chaos: bad --seeds %S (expected A..B or N)\n" seeds;
        exit 2
    in
    let jobs = if jobs <= 0 then Runner.default_jobs () else jobs in
    let results = Runner.sweep ~jobs ~scenarios ~seeds () in
    List.iter
      (fun r ->
        print_endline (Runner.describe r);
        if metrics then
          List.iter
            (fun (k, v) -> Printf.printf "    %s %s\n" k v)
            r.Runner.r_metrics)
      results;
    let failed = Runner.failures results in
    Printf.printf "chaos: %d/%d cells passed (%d scenarios x %d seeds, %d jobs)\n"
      (List.length results - List.length failed)
      (List.length results) (List.length scenarios) (List.length seeds) jobs;
    if failed <> [] then begin
      prerr_endline "chaos: oracle violations; reproduce with:";
      List.iter (fun r -> prerr_endline ("  " ^ Runner.reproducer r)) failed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run scripted fault-injection scenarios (crashes, partitions, loss, \
          Byzantine replicas, storage crashes) and check every run against \
          the end-to-end accountability oracle: tolerated faults must leave \
          a live, linearizable, cleanly auditable service; scripted \
          misbehaviour must yield an enforcer-verified uPoM blaming only the \
          scripted culprits.")
    Term.(
      const run $ suite_arg $ seeds_arg $ scenario_arg $ jobs_arg
      $ chaos_metrics_arg)

(* iaccf status VIEW.SEQNO — CCF's GET /app/tx over a freshly simulated
   service: run a workload, then report what every replica says about the
   given transaction ID. COMMITTED and INVALID come only from the stable
   prefix and are final; PENDING covers everything a replica has seen but
   cannot yet vouch for; UNKNOWN is a sequence number past the high-water
   mark. [--view-change] forces a view change after the workload and runs
   a little more load in the new view, so IDs re-proposed under a higher
   view report INVALID under the old one. *)
let status_cmd =
  let txid_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VIEW.SEQNO"
          ~doc:"Transaction ID to query, e.g. 0.12 (the view and sequence \
                number a replica stamps on the reply).")
  in
  let view_change_arg =
    Arg.(
      value & flag
      & info [ "view-change" ]
          ~doc:"Force a view change after the workload (and append a little \
                more load in the new view) before answering.")
  in
  let run txid_str n txs seed latency view_change =
    let txid =
      match Status.txid_of_string txid_str with
      | Some t -> t
      | None ->
          Printf.eprintf
            "iaccf status: bad transaction ID %S (expected VIEW.SEQNO, e.g. \
             0.12)\n"
            txid_str;
          exit 2
    in
    (* Small batches so the workload spreads over many sequence numbers —
       with the default batch size a whole run fits in a handful of them. *)
    let params = { Replica.default_params with Replica.max_batch = 4 } in
    let cluster =
      Cluster.make ~seed ~n ~params ~latency:(latency_fn latency)
        ~app:(Smallbank.app ()) ()
    in
    let _ = drive_smallbank cluster ~txs ~seed in
    if view_change then begin
      List.iter Replica.inject_view_change (Cluster.replicas cluster);
      Cluster.run cluster ~ms:3_000.0;
      let _ = drive_smallbank cluster ~txs:8 ~seed:(seed + 1) in
      ()
    end;
    Cluster.run cluster ~ms:2_000.0;
    let r0 = Cluster.replica cluster 0 in
    Printf.printf "service view:        %d\n" (Replica.view r0);
    Printf.printf "last committed:      %d\n" (Replica.last_committed r0);
    Printf.printf "stable horizon:      %d (terminal answers end here)\n"
      (Replica.stable_committed r0);
    List.iter
      (fun r ->
        Printf.printf "replica %d:           %s\n" (Replica.id r)
          (Status.to_string
             (Replica.tx_status r ~view:txid.Status.view ~seqno:txid.Status.seqno)))
      (Cluster.replicas cluster);
    Printf.printf "{\"transaction_id\": \"%s\", \"status\": \"%s\"}\n"
      (Status.txid_to_string txid)
      (Status.to_string
         (Replica.tx_status r0 ~view:txid.Status.view ~seqno:txid.Status.seqno))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Report a transaction ID's status (UNKNOWN, PENDING, COMMITTED, or \
          INVALID) after a simulated workload — the shape of CCF's GET \
          /app/tx.")
    Term.(
      const run $ txid_arg $ replicas_arg $ txs_arg $ seed_arg $ latency_arg
      $ view_change_arg)

(* iaccf observe — run the read tier: a cluster under SmallBank load, then
   non-voting observers tailing the ledger and serving reads through a
   verifying client. Every answer is checked against the service
   configuration (receipt, write-set binding, freshness floor), so the
   printed verified-read count is evidence, not trust in the observer. *)
let observe_cmd =
  let module Observer = Iaccf_observer.Observer in
  let module Reader = Iaccf_observer.Reader in
  let observers_arg =
    Arg.(
      value
      & opt int 2
      & info [ "observers" ] ~docv:"N"
          ~doc:"Non-voting observer nodes to attach to the cluster.")
  in
  let reads_arg =
    Arg.(
      value
      & opt int 40
      & info [ "reads" ] ~docv:"COUNT"
          ~doc:"Verified reads to issue across the observers.")
  in
  let run n txs seed latency observers reads =
    let obs = Obs.create ~metrics:true ~tracing:false () in
    let params = { Replica.default_params with Replica.max_batch = 4 } in
    let cluster =
      Cluster.make ~seed ~n ~params ~latency:(latency_fn latency)
        ~app:(Smallbank.app ()) ~obs ()
    in
    let client, _ = drive_smallbank cluster ~txs ~seed in
    (* Settle with read-only ops strictly after the writes: commit evidence
       for batch s only reaches the ledger with the pre-prepare of s+P, so
       the freshest writes cannot carry receipts until more batches land. *)
    let settled = ref 0 in
    for _ = 1 to 8 do
      Client.submit client ~proc:"sb/balance"
        ~args:(Smallbank.balance_args ~account:0)
        ~on_complete:(fun _ -> incr settled)
        ()
    done;
    if
      not
        (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () -> !settled >= 8))
    then failwith "settle workload did not complete";
    let obs_nodes =
      List.init observers (fun i ->
          Observer.spawn cluster
            ~addr:(Observer.default_base + i)
            ~source:(i mod n) ())
    in
    let head () = Replica.last_committed (Cluster.replica cluster 0) in
    if
      not
        (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () ->
             List.for_all (fun o -> Observer.synced_upto o >= head ()) obs_nodes))
    then failwith "observers did not catch up";
    Printf.printf "observers:           %d (addresses %d..%d), all synced to seqno %d\n"
      observers Observer.default_base
      (Observer.default_base + observers - 1)
      (head ());
    let reader =
      Reader.create ~address:300 ~genesis:(Cluster.genesis cluster)
        ~pipeline:Replica.default_params.Replica.pipeline
        ~sched:(Cluster.sched cluster) ~network:(Cluster.network cluster) ~obs ()
    in
    let done_reads = ref 0 in
    let sample = ref None in
    for i = 0 to reads - 1 do
      let o = List.nth obs_nodes (i mod observers) in
      let key = Printf.sprintf "sb/c/%d" (i mod 20) in
      Reader.read reader ~observer:(Observer.address o) ~key (fun r ->
          if !sample = None && r.Reader.rd_verified then sample := Some r;
          incr done_reads)
    done;
    if
      not
        (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () ->
             !done_reads >= reads))
    then failwith "reads did not complete";
    (match !sample with
    | Some r ->
        Printf.printf
          "sample read:         %s = %s (receipt verified; writer at ledger tx index %d)\n"
          r.Reader.rd_key
          (match r.Reader.rd_value with Some v -> v | None -> "<absent>")
          (match r.Reader.rd_index with Some i -> i | None -> 0)
    | None -> ());
    Printf.printf "reads:               %d issued, %d verified, %d failed, %d stale\n"
      reads (Reader.verified_reads reader)
      (Reader.failed_verifications reader)
      (Reader.stale_detected reader);
    (* Status through the observer front door: wait for a deep, committed
       transaction by polling, exactly as a disconnected client would. *)
    let txid =
      { Status.view = Replica.view (Cluster.replica cluster 0); seqno = 1 }
    in
    let final = ref Status.Unknown in
    Reader.wait_for_commit reader
      ~observer:(Observer.address (List.hd obs_nodes))
      ~txid
      (fun s -> final := s);
    Cluster.run cluster ~ms:2_000.0;
    Printf.printf "wait_for_commit:     %s -> %s\n"
      (Status.txid_to_string txid)
      (Status.to_string !final);
    Printf.printf "status violations:   %d (terminal answers never flipped)\n"
      (Reader.status_violations reader);
    List.iter
      (fun o ->
        let c k =
          Obs.counter_value obs
            (Printf.sprintf "observer.%d.%s" (Observer.address o) k)
        in
        Printf.printf
          "observer %d:         %d reads, %d status, %d audit paths served \
           (consensus votes: none)\n"
          (Observer.address o) (c "reads_served") (c "status_served")
          (c "audit_paths_served"))
      obs_nodes
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Attach non-voting observer replicas to a simulated cluster and \
          serve client-verified reads and transaction status from them, off \
          the quorum path.")
    Term.(
      const run $ replicas_arg $ txs_arg $ seed_arg $ latency_arg
      $ observers_arg $ reads_arg)

(* iaccf profile — the crypto cost profiler: run a SmallBank workload with
   every sign/verify/MAC/apply on the replicas' hot paths charged to a
   per-(operation, message class, principal) wall-clock account, then
   print the Table-3-shaped breakdown. On any signature-verifying
   configuration the dominant row is client-signature verification —
   the paper's headline cost. *)
let profile_cmd =
  let run n txs seed latency =
    let profile = Profile.create () in
    let cluster = make_cluster ~profile ~n ~seed ~latency () in
    let _ = drive_smallbank cluster ~txs ~seed in
    Cluster.run cluster ~ms:5_000.0;
    Printf.printf
      "crypto cost profile: %d replicas, %d txs, seed %d (%.3f s profiled)\n\n"
      n txs seed (Profile.elapsed_s profile);
    print_string (Profile.render profile);
    match Profile.rows profile with
    | { Profile.r_op = Profile.Verify; r_cls = "request";
        r_principal = Profile.Client_key; _ } :: _ ->
        print_endline
          "\ndominant cost: client request signature verification (paper §6.2, Table 3)"
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a SmallBank workload with per-operation crypto cost accounting \
          and print the breakdown by operation, message class, and principal \
          kind (client vs replica keys), sorted by wall time.")
    Term.(const run $ replicas_arg $ txs_arg $ seed_arg $ latency_arg)

(* iaccf bench-report — aggregate BENCH_*.json files into a trend table
   and, with --baseline-dir, gate the current numbers against committed
   baselines (exact counts, tolerant virtual-clock ms, informational wall
   clock), exiting nonzero on regression. *)
let bench_report_cmd =
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "BENCH_*.json files to aggregate. Default: every BENCH_*.json in \
             the current directory.")
  in
  let baseline_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-dir" ] ~docv:"DIR"
          ~doc:
            "Compare against the baseline files of the same names in $(docv) \
             and exit 1 if any gated metric regressed.")
  in
  let tolerance_arg =
    Arg.(
      value
      & opt float Report.default_tolerance
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:"Relative tolerance for ms-gated metrics (default 0.10).")
  in
  let run files baseline_dir tolerance =
    let files =
      match files with
      | [] ->
          Sys.readdir "."
          |> Array.to_list
          |> List.filter (fun f ->
                 String.length f > 6
                 && String.sub f 0 6 = "BENCH_"
                 && Filename.check_suffix f ".json")
          |> List.sort compare
      | fs -> fs
    in
    if files = [] then begin
      prerr_endline
        "iaccf bench-report: no BENCH_*.json files found (run a bench first)";
      exit 2
    end;
    let load file =
      match Report.load_file file with
      | Ok rows -> rows
      | Error e ->
          Printf.eprintf "iaccf bench-report: %s\n" e;
          exit 2
    in
    let current = List.concat_map load files in
    match baseline_dir with
    | None ->
        Printf.printf "bench trajectory: %d metrics from %d file(s)\n"
          (List.length current) (List.length files);
        print_string (Report.render_trajectory current)
    | Some dir ->
        let baseline =
          List.concat_map
            (fun f ->
              let path = Filename.concat dir (Filename.basename f) in
              if Sys.file_exists path then load path
              else begin
                Printf.eprintf "iaccf bench-report: no baseline %s (skipping)\n"
                  path;
                []
              end)
            files
        in
        let comparisons = Report.compare_rows ~tolerance ~baseline ~current () in
        print_string (Report.render_comparison comparisons);
        let rs = Report.regressions comparisons in
        if rs <> [] then begin
          Printf.eprintf "iaccf bench-report: %d metric(s) regressed\n"
            (List.length rs);
          exit 1
        end
        else
          Printf.printf "bench-report: ok (%d metrics vs %s)\n"
            (List.length current) dir
  in
  Cmd.v
    (Cmd.info "bench-report"
       ~doc:
         "Aggregate BENCH_*.json bench output into a trend table, or gate it \
          against committed baselines with --baseline-dir (exit 1 on \
          regression).")
    Term.(const run $ files_arg $ baseline_dir_arg $ tolerance_arg)

(* --- iaccf serve / cluster: the multi-process socket runtime --- *)

module Net_manifest = Iaccf_net.Manifest
module Net_driver = Iaccf_net.Driver
module Net_supervisor = Iaccf_net.Supervisor

let manifest_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE" ~doc:"Cluster manifest file.")

let serve_cmd =
  let id_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "id" ] ~docv:"ID" ~doc:"This replica's id in the manifest.")
  in
  let run manifest id =
    match Net_manifest.load manifest with
    | Error e ->
        Printf.eprintf "iaccf serve: %s\n" e;
        exit 2
    | Ok m ->
        let committed = Iaccf_net.Serve.main ~manifest:m ~id () in
        Printf.printf "serve: replica %d stopped at committed seqno %d\n" id
          committed
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one replica as an OS process over real sockets, from a cluster \
          manifest (the per-process body behind $(b,iaccf cluster)). Runs \
          until SIGTERM/SIGINT, then writes its metrics snapshot next to the \
          manifest.")
    Term.(const run $ manifest_arg $ id_arg)

(* One line per socket-transport registry, shared between the driver's
   live registry and the replicas' on-disk snapshots so `iaccf cluster`
   prints both through the same shape. *)
let transport_stat_line ~label lookup =
  let v k = match lookup k with Some s -> s | None -> "0" in
  Printf.printf
    "  %-12s bytes in/out %10s/%-10s frames %7s/%-7s retries %3s dropped %s\n"
    label
    (v "net.sock.bytes_in") (v "net.sock.bytes_out")
    (v "net.sock.frames_in") (v "net.sock.frames_out")
    (v "net.sock.connect_retries")
    (let dropped k = int_of_string_opt (v k) |> Option.value ~default:0 in
     string_of_int
       (List.fold_left
          (fun acc reason -> acc + dropped ("net.dropped." ^ reason))
          0
          [ "backoff"; "queue_full"; "conn_lost"; "no_route"; "garbage" ]))

let cluster_cmd =
  let tcp_arg =
    Arg.(
      value & flag
      & info [ "tcp" ]
          ~doc:"Use loopback TCP instead of Unix-domain sockets.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Run directory for the manifest, sockets, logs, and metrics \
             snapshots (default: a fresh directory under the system temp \
             dir).")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Driver client identities.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 16
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"Closed-loop in-flight transaction window.")
  in
  let keep_arg =
    Arg.(
      value & flag
      & info [ "keep" ]
          ~doc:"Keep the run directory (logs, metrics) after the run.")
  in
  let run n txs seed tcp dir clients concurrency keep =
    if n < 1 then begin
      prerr_endline "iaccf cluster: need at least one replica";
      exit 2
    end;
    let dir =
      match dir with
      | Some d ->
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          d
      | None ->
          let d =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "iaccf-cluster-%d" (Unix.getpid ()))
          in
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          d
    in
    let m = Net_manifest.local ~tcp ~seed ~n ~app:"smallbank" ~dir () in
    let mfile = Filename.concat dir "manifest.json" in
    Net_manifest.save m mfile;
    Printf.printf "cluster: %d replicas over %s, run dir %s\n" n
      (if tcp then "loopback TCP" else "unix sockets")
      dir;
    let children =
      Net_supervisor.spawn_fleet ~manifest:m
        ~serve_argv:(fun ~id ->
          [|
            Sys.executable_name; "serve"; "--manifest"; mfile; "--id";
            string_of_int id;
          |])
    in
    let teardown () = Net_supervisor.shutdown children in
    if not (Net_supervisor.wait_ready m) then begin
      ignore (teardown ());
      Printf.eprintf
        "iaccf cluster: fleet not ready after 10s (see %s/replica-*.log)\n" dir;
      exit 1
    end;
    Printf.printf "cluster: fleet ready, driving %d SmallBank txs (seed %d)\n%!"
      txs seed;
    let h = Net_driver.connect ~clients m in
    let outcome = Net_driver.run_smallbank ~concurrency ~total:txs h ~seed () in
    let driver_obs = Iaccf_net.Driver.obs h in
    let driver_snapshot = Obs.snapshot driver_obs in
    Net_driver.close h;
    let statuses = teardown () in
    (match outcome with
    | Error e ->
        Printf.eprintf "iaccf cluster: %s (see %s/replica-*.log)\n" e dir;
        exit 1
    | Ok r ->
        let p q = Obs.Histogram.percentile_of_list q r.Net_driver.r_latencies_ms in
        Printf.printf
          "cluster: committed %d/%d txs in %.2fs wall — %.0f tx/s end-to-end\n"
          r.Net_driver.r_completed r.Net_driver.r_total r.Net_driver.r_wall_s
          r.Net_driver.r_tx_s;
        Printf.printf
          "  latency ms (wall): p50 %.1f  p90 %.1f  p99 %.1f  (%d samples, +%d \
           setup txs untimed)\n"
          (p 0.50) (p 0.90) (p 0.99)
          (List.length r.Net_driver.r_latencies_ms)
          r.Net_driver.r_setup);
    Printf.printf "transport:\n";
    transport_stat_line ~label:"driver" (fun k ->
        List.assoc_opt k driver_snapshot);
    List.iter
      (fun (entry : Net_manifest.replica_entry) ->
        let id = entry.Net_manifest.id in
        let file = Filename.concat dir (Printf.sprintf "replica-%d.metrics" id) in
        match
          if Sys.file_exists file then
            let ic = open_in_bin file in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Some (Obs.parse_snapshot s)
          else None
        with
        | None ->
            Printf.printf "  replica %-4d (no metrics snapshot)\n" id
        | Some snap ->
            transport_stat_line
              ~label:(Printf.sprintf "replica %d" id)
              (fun k -> List.assoc_opt k snap);
            (match List.assoc_opt "serve.last_committed" snap with
            | Some c -> Printf.printf "    committed seqno %s\n" c
            | None -> ()))
      m.Net_manifest.replicas;
    List.iter
      (fun (id, st) ->
        match st with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED c ->
            Printf.printf "  replica %d exited with code %d\n" id c
        | Unix.WSIGNALED s -> Printf.printf "  replica %d killed by signal %d\n" id s
        | Unix.WSTOPPED s -> Printf.printf "  replica %d stopped by signal %d\n" id s)
      statuses;
    if keep then Printf.printf "run dir kept: %s\n" dir
    else begin
      let rm f = try Sys.remove f with Sys_error _ -> () in
      Array.iter (fun f -> rm (Filename.concat dir f)) (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Spawn a local fleet of $(b,iaccf serve) replica processes talking \
          over real sockets, drive SmallBank load through signing clients in \
          this process, print wall-clock throughput/latency and per-process \
          transport stats, and tear the fleet down.")
    Term.(
      const run $ replicas_arg $ txs_arg $ seed_arg $ tcp_arg $ dir_arg
      $ clients_arg $ concurrency_arg $ keep_arg)

(* --- iaccf load: open-loop traffic against a capacity-limited cluster --- *)

let load_cmd =
  let rate_arg =
    Arg.(
      value
      & opt float 150.0
      & info [ "rate" ] ~docv:"PER_SEC"
          ~doc:"Offered arrival rate (requests per virtual second).")
  in
  let duration_arg =
    Arg.(
      value
      & opt float 1_000.0
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:"Arrival window length in virtual milliseconds.")
  in
  let sessions_arg =
    Arg.(
      value
      & opt int 2048
      & info [ "sessions" ] ~docv:"N"
          ~doc:"Distinct client session identities (lazy keypair derivation).")
  in
  let accounts_arg =
    Arg.(
      value
      & opt int 50
      & info [ "accounts" ] ~docv:"N"
          ~doc:"SmallBank accounts under the Zipf-skewed operation mix.")
  in
  let admission_queue_arg =
    Arg.(
      value
      & opt int 64
      & info [ "admission-queue" ] ~docv:"DEPTH"
          ~doc:
            "Primary admission-queue watermark: pending requests beyond \
             $(docv) are rejected with Busy (0 admits everything).")
  in
  let arrival_arg =
    let shape =
      Arg.enum
        [
          ("poisson", `Poisson);
          ("constant", `Constant);
          ("onoff", `Onoff);
          ("diurnal", `Diurnal);
        ]
    in
    Arg.(
      value
      & opt shape `Poisson
      & info [ "arrival" ] ~docv:"SHAPE"
          ~doc:
            "Arrival process, parameterized by --rate: poisson, constant, \
             onoff (bursts at 3x rate over a rate/3 background), or diurnal \
             (ramp between rate/3 and 2x rate across the window).")
  in
  let run n rate duration_ms sessions accounts admission_queue arrival seed
      metrics =
    (* Capacity-limited on purpose: pipeline 1 over 5 ms links commits a
       two-tx batch every ~15 ms (~130 tx/s at the defaults), so the
       saturation knee is reachable at CLI-friendly offered rates. *)
    let params =
      {
        Replica.default_params with
        pipeline = 1;
        max_batch = 2;
        batch_delay_ms = 4.0;
        vc_timeout_ms = 100_000.0;
        admission_queue;
      }
    in
    let obs = Obs.create ~metrics:true ~tracing:false () in
    let cluster =
      Cluster.make ~seed ~n ~params
        ~latency:(fun _ -> Latency.constant 5.0)
        ~app:(Smallbank.app ()) ~obs ()
    in
    let kvs =
      List.concat_map
        (fun id ->
          [
            (Printf.sprintf "sb/c/%d" id, "10000");
            (Printf.sprintf "sb/s/%d" id, "10000");
          ])
        (List.init accounts Fun.id)
    in
    List.iter (fun r -> Replica.preload_state r kvs) (Cluster.replicas cluster);
    let shape =
      match arrival with
      | `Poisson -> Iaccf_load.Arrival.Poisson rate
      | `Constant -> Iaccf_load.Arrival.Constant rate
      | `Onoff ->
          Iaccf_load.Arrival.Onoff
            {
              on_rate = 3.0 *. rate;
              off_rate = rate /. 3.0;
              on_ms = 150.0;
              off_ms = 300.0;
            }
      | `Diurnal ->
          Iaccf_load.Arrival.Diurnal
            {
              base_rate = rate /. 3.0;
              peak_rate = 2.0 *. rate;
              period_ms = duration_ms;
            }
    in
    let gen =
      Iaccf_load.Gen.create ~cluster ~sessions ~seed
        ~mix:
          (Iaccf_load.Mix.smallbank
             ~rng:(Iaccf_util.Rng.create (seed + 1))
             ~accounts ())
        ~arrival:shape ()
    in
    let t0 = Unix.gettimeofday () in
    let start_ms = Iaccf_sim.Sched.now (Cluster.sched cluster) in
    Iaccf_load.Gen.start gen ~duration_ms;
    let drained = Iaccf_load.Gen.drain gen () in
    let virtual_ms = Iaccf_sim.Sched.now (Cluster.sched cluster) -. start_ms in
    let wall = Unix.gettimeofday () -. t0 in
    let s = Iaccf_load.Gen.stats gen in
    let pct p =
      Obs.Histogram.percentile_of_list p s.Iaccf_load.Gen.ls_latencies_ms
    in
    Printf.printf "offered:             %d requests (%.0f/s nominal, %.0f virtual ms window)\n"
      s.Iaccf_load.Gen.ls_offered
      (Iaccf_load.Arrival.mean_rate shape)
      duration_ms;
    Printf.printf "committed:           %d (%.0f tx/s goodput over %.0f virtual ms)\n"
      s.Iaccf_load.Gen.ls_committed
      (1000.0 *. float_of_int s.Iaccf_load.Gen.ls_committed /. virtual_ms)
      virtual_ms;
    Printf.printf "admission:           %d admitted, %d Busy rejections (queue peak %.0f/%d)\n"
      (Obs.counter_value obs "load.admitted")
      s.Iaccf_load.Gen.ls_rejected
      (Obs.gauge_max_value obs "queue.depth")
      admission_queue;
    Printf.printf "retries:             %d rebroadcasts\n"
      s.Iaccf_load.Gen.ls_retries;
    Printf.printf "sessions:            %d used of %d (%d keypairs derived)\n"
      s.Iaccf_load.Gen.ls_sessions_used sessions
      s.Iaccf_load.Gen.ls_derived_keys;
    Printf.printf "latency:             p50 %.2f ms, p95 %.2f ms, p99 %.2f ms (virtual)\n"
      (pct 0.50) (pct 0.95) (pct 0.99);
    Printf.printf "wall clock:          %.2fs\n" wall;
    Option.iter
      (fun file ->
        Obs.write_metrics obs file;
        Printf.printf "metrics:             %d keys -> %s\n"
          (List.length (Obs.snapshot obs)) file)
      metrics;
    if not drained then begin
      Printf.eprintf "iaccf load: %d requests still outstanding after drain\n"
        s.Iaccf_load.Gen.ls_outstanding;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive open-loop traffic (Poisson, bursty, or diurnal arrivals over \
          Zipf-skewed SmallBank sessions) at a capacity-limited cluster with \
          admission control, and report the throughput/latency outcome.")
    Term.(
      const run $ replicas_arg $ rate_arg $ duration_arg $ sessions_arg
      $ accounts_arg $ admission_queue_arg $ arrival_arg $ seed_arg
      $ metrics_arg)

let () =
  let info =
    Cmd.info "iaccf" ~version:"1.0.0"
      ~doc:"IA-CCF: individual accountability for permissioned ledgers (NSDI 2022 reproduction)"
  in
  let group =
    Cmd.group info
      [
        run_cmd;
        serve_cmd;
        cluster_cmd;
        status_cmd;
        observe_cmd;
        stats_cmd;
        profile_cmd;
        bench_report_cmd;
        ledger_cmd;
        audit_cmd;
        export_package_cmd;
        keys_cmd;
        chaos_cmd;
        load_cmd;
      ]
  in
  exit
    (try Cmd.eval ~catch:false group with
    | Store.Storage_error msg | Package.Package_error msg ->
        Printf.eprintf "iaccf: %s\n" msg;
        1)
