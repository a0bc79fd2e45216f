(* The @bench-regress gate: tiny, seed-deterministic bench runs whose
   gated metrics (transaction/signature counts, virtual-clock latencies)
   must match the committed baselines in bench/baselines/.

   Three miniature benches ride the same code paths as the full suite:

   - smallbank: closed-loop SmallBank load through Harness.run_iaccf, in
     the full, no-receipt and signed-commit-ablation variants, plus the
     heap words replica 0's key-value store retains after the full run,
     and the SHA-256 compressions and field multiplications the full run
     makes per transaction;
   - statesync: one chunked catch-up of a joining replica (the
     @statesync-bench path at its smallest size);
   - chaos: the identity-intercept equivalence run from @chaos-overhead;
   - crypto: the verify stage's results and its table threshold;
   - load: an open-loop on/off burst through the shared generator with
     admission control shedding at the primary (the @load-bench path at
     its smallest size).

   Each writes its BENCH_regress_*.json, which is schema-checked and then
   compared against the baseline with the report layer's gate semantics
   (exact counts, tolerant virtual ms, informational wall clock). Exit is
   nonzero on any regression, so `dune runtest` fails when the bench
   trajectory moves.

   Regenerate baselines after an intentional change with
     dune exec bench/regress.exe -- --write-baselines bench/baselines
   from the repo root. *)

open Iaccf_core
module Network = Iaccf_sim.Network
module Sched = Iaccf_sim.Sched
module Obs = Iaccf_obs.Obs
module Ledger = Iaccf_ledger.Ledger
module Report = Iaccf_report.Report
open Harness

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench-regress: " ^ s); exit 1) fmt

(* --- smallbank: three variants through the shared harness ------------- *)

let smallbank_rows () =
  let bench = "regress_smallbank" in
  let total = 60 and concurrency = 16 and accounts = 20 in
  (* The store keeps only its current map: any per-transaction history
     would grow this exact count. *)
  let kv_words = ref 0 in
  let inspect cluster =
    kv_words := Obj.reachable_words (Obj.repr (Replica.store (Cluster.replica cluster 0)))
  in
  (* Compressions and field multiplications over the whole full run,
     set-up included: hashing done again that a holder could have kept,
     or an exponentiation that lost its table, grows these exact counts. *)
  let blocks_before = Iaccf_crypto.Sha256.blocks ()
  and muls_before = Iaccf_crypto.Group.muls () in
  let full = run_iaccf ~label:"full" ~total ~concurrency ~accounts ~inspect () in
  let blocks = Iaccf_crypto.Sha256.blocks () - blocks_before
  and muls = Iaccf_crypto.Group.muls () - muls_before in
  (* Two decimals: distinct counts stay distinct (1/60 > 0.01) and the
     value survives the baseline file's six significant digits. *)
  let per_tx n = Float.round (100.0 *. float_of_int n /. float_of_int full.rr_txs) /. 100.0 in
  let results =
    [
      full;
      run_iaccf ~label:"no_receipt" ~variant:Variant.no_receipt ~total ~concurrency
        ~accounts ();
      run_iaccf ~label:"signed_commits" ~variant:Variant.signed_commits ~total
        ~concurrency ~accounts ();
    ]
  in
  List.concat_map (rows_of_result ~bench) results
  @ [
      Report.row ~bench ~series:"full" ~metric:"kv_words" ~gate:Report.Exact
        (float_of_int !kv_words);
      Report.row ~bench ~series:"full" ~metric:"sha256_blocks_per_tx" ~gate:Report.Exact
        (per_tx blocks);
      Report.row ~bench ~series:"full" ~metric:"field_muls_per_tx" ~gate:Report.Exact
        (per_tx muls);
    ]

(* --- statesync: smallest catch-up run (mirrors bench/statesync.ml,
   whose module has a toplevel main and so cannot be linked here) ------- *)

let statesync_rows () =
  let params =
    {
      Replica.default_params with
      checkpoint_interval = 10;
      max_batch = 4;
      snapshot_interval = 10;
    }
  in
  let txs = 100 in
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster = Cluster.make ~seed:7 ~n:4 ~params ~obs () in
  let client = Cluster.add_client cluster () in
  let _, completed =
    Pump.closed_loop ~total:txs ~concurrency:16
      ~submit:(fun ~seq ~on_complete ->
        Client.submit client ~proc:"counter/add" ~args:(string_of_int seq)
          ~on_complete:(fun _ -> on_complete ())
          ())
      ()
  in
  if
    not
      (Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
           !completed >= txs))
  then fail "statesync workload did not complete";
  Cluster.run cluster ~ms:2_000.0;
  let r0 = Cluster.replica cluster 0 in
  let target = Replica.last_committed r0 - params.Replica.checkpoint_interval in
  let entries = Ledger.length (Replica.ledger r0) in
  let joiner = Cluster.spawn_replica cluster ~id:4 in
  Replica.join_snapshot joiner ~from:0;
  if
    not
      (Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
           Replica.last_committed joiner >= target))
  then fail "statesync joiner did not catch up";
  let c name = Obs.counter_value obs name in
  if c "statesync.installs" < 1 then fail "statesync installed no snapshot";
  let bench = "regress_statesync" in
  let series = Printf.sprintf "catchup txs=%d" txs in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  [
    exact "ledger_entries" entries;
    exact "snapshot_bytes" (c "statesync.bytes");
    exact "chunks" (c "statesync.chunks");
    exact "entries_skipped" (c "statesync.entries_skipped");
  ]

(* --- chaos: identity-intercept equivalence (mirrors
   bench/chaos_overhead.ml at a smaller size) --------------------------- *)

let chaos_rows () =
  let requests = 20 in
  let run ~intercepted =
    let cluster = Cluster.make ~seed:42 ~n:4 () in
    if intercepted then
      for id = 0 to 3 do
        Network.set_intercept (Cluster.network cluster) id (fun ~dst msg ->
            [ (dst, msg) ])
      done;
    let client = Cluster.add_client cluster () in
    let completions = ref [] in
    for i = 1 to requests do
      let args = string_of_int i in
      Client.submit client ~proc:"counter/add" ~args
        ~on_complete:(fun oc -> completions := (args, oc.Client.oc_output) :: !completions)
        ()
    done;
    if
      not
        (Cluster.run_until cluster (fun () ->
             List.length !completions = requests))
    then fail "chaos run stalled";
    Cluster.run cluster ~ms:500.0;
    (Sched.now (Cluster.sched cluster), List.rev !completions)
  in
  let vt_direct, out_direct = run ~intercepted:false in
  let vt_wrapped, out_wrapped = run ~intercepted:true in
  if vt_direct <> vt_wrapped || out_direct <> out_wrapped then
    fail "identity intercept changed a fault-free run";
  let bench = "regress_chaos" in
  let series = "identity_intercept" in
  [
    Report.row ~bench ~series ~metric:"txs" ~gate:Report.Exact
      (float_of_int requests);
    Report.row ~bench ~series ~metric:"virtual_ms" ~gate:Report.Exact vt_direct;
  ]

(* --- crypto: the verify stage's table threshold, counts only (wall clock
   lives in @crypto-bench) ------------------------------------------------ *)

let crypto_rows () =
  let module Crypto = Iaccf_crypto in
  (* Key k signs k+1 messages, so the keys fall on both sides of the
     third-use table threshold; every eighth signature is corrupted. *)
  let n_keys = 6 in
  let keys =
    Array.init n_keys (fun i ->
        Crypto.Schnorr.keypair_of_seed (Printf.sprintf "regress-%d" i))
  in
  let jobs =
    List.concat
      (List.init n_keys (fun k -> List.init (k + 1) (fun _ -> k)))
    |> List.mapi (fun i k ->
           let sk, pk = keys.(k) in
           let digest = Crypto.Sha256.digest (Printf.sprintf "regress-msg-%d" i) in
           let signature =
             if i mod 8 = 7 then String.make 64 '\x2a'
             else Crypto.Schnorr.sign sk digest
           in
           (pk, digest, signature))
  in
  let obs = Obs.passive () in
  let st = Crypto.Vstage.create ~obs () in
  let staged =
    List.map
      (fun (pk, digest, signature) ->
        Crypto.Vstage.verify st ~cls:"regress" ~principal:Crypto.Profile.Client_key
          pk digest ~signature)
      jobs
  in
  (* The reference: fresh key values, never tabled. *)
  let inline =
    List.map
      (fun (pk, digest, signature) ->
        match
          Crypto.Schnorr.public_key_of_bytes (Crypto.Schnorr.public_key_to_bytes pk)
        with
        | Some pk -> Crypto.Schnorr.verify pk digest ~signature
        | None -> false)
      jobs
  in
  if staged <> inline then fail "staged verification diverged from inline";
  let bench = "regress_crypto" in
  let series = Printf.sprintf "verify jobs=%d keys=%d" (List.length jobs) n_keys in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  [
    exact "jobs" (List.length jobs);
    exact "valid" (List.length (List.filter Fun.id inline));
    exact "keys_precomputed" (Obs.counter_value obs "crypto.keys.precomputed");
  ]

(* --- load: open-loop burst through the shared generator, with admission
   control shedding at the primary. Everything advances on the virtual
   clock from seeded RNGs, so every count — including the rejections —
   is exact. ------------------------------------------------------------ *)

let open_load_rows () =
  let params =
    {
      Replica.pipeline = 1;
      checkpoint_interval = 50;
      max_batch = 2;
      batch_delay_ms = 4.0;
      vc_timeout_ms = 100_000.0;
      variant = Variant.full;
      snapshot_interval = 0;
      admission_queue = 16;
    }
  in
  let obs = Obs.passive () in
  let cluster =
    Cluster.make ~seed:11 ~n:4 ~params
      ~latency:(fun _ -> Iaccf_sim.Latency.constant 5.0)
      ~obs ()
  in
  let gen =
    Iaccf_load.Gen.create ~cluster ~sessions:256 ~seed:11
      ~mix:Iaccf_load.Mix.noop
      ~arrival:
        (Iaccf_load.Arrival.Onoff
           { on_rate = 400.0; off_rate = 30.0; on_ms = 150.0; off_ms = 250.0 })
      ()
  in
  Iaccf_load.Gen.start gen ~duration_ms:800.0;
  if not (Iaccf_load.Gen.drain gen ()) then
    fail "open-loop load workload did not drain";
  let s = Iaccf_load.Gen.stats gen in
  if s.Iaccf_load.Gen.ls_offered <> s.Iaccf_load.Gen.ls_committed then
    fail "open-loop accounting broken: %d offered, %d committed"
      s.Iaccf_load.Gen.ls_offered s.Iaccf_load.Gen.ls_committed;
  if Obs.counter_value obs "load.rejected" = 0 then
    fail "open-loop burst never tripped admission control";
  let bench = "regress_load" in
  let series = "onoff burst" in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  [
    exact "offered" s.Iaccf_load.Gen.ls_offered;
    exact "committed" s.Iaccf_load.Gen.ls_committed;
    exact "admitted" (Obs.counter_value obs "load.admitted");
    exact "rejected" (Obs.counter_value obs "load.rejected");
    exact "retries" s.Iaccf_load.Gen.ls_retries;
    exact "sessions_used" s.Iaccf_load.Gen.ls_sessions_used;
    Report.row ~bench ~series ~metric:"queue_peak" ~gate:Report.Exact
      (Obs.gauge_max_value obs "queue.depth");
    Report.row ~bench ~series ~metric:"p50_latency_ms" ~gate:Report.Ms
      (Obs.Histogram.percentile_of_list 0.50 s.Iaccf_load.Gen.ls_latencies_ms);
    Report.row ~bench ~series ~metric:"p99_latency_ms" ~gate:Report.Ms
      (Obs.Histogram.percentile_of_list 0.99 s.Iaccf_load.Gen.ls_latencies_ms);
  ]

(* --- driver ----------------------------------------------------------- *)

let files = (* (emitted file, what writes it) *)
  [ "BENCH_regress_smallbank.json"; "BENCH_regress_statesync.json";
    "BENCH_regress_chaos.json"; "BENCH_regress_crypto.json";
    "BENCH_regress_load.json" ]

let emit ~dir =
  let path f = Filename.concat dir f in
  Report.write_rows
    ~file:(path "BENCH_regress_smallbank.json")
    ~bench:"regress_smallbank" (smallbank_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_statesync.json")
    ~bench:"regress_statesync" (statesync_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_chaos.json")
    ~bench:"regress_chaos" (chaos_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_crypto.json")
    ~bench:"regress_crypto" (crypto_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_load.json")
    ~bench:"regress_load" (open_load_rows ())

let load_rows file =
  match Report.load_file file with
  | Ok rows -> rows
  | Error e -> fail "%s" e

let () =
  let baselines = ref None and write_to = ref None and tolerance = ref None in
  let rec parse = function
    | [] -> ()
    | "--baselines" :: dir :: rest -> baselines := Some dir; parse rest
    | "--write-baselines" :: dir :: rest -> write_to := Some dir; parse rest
    | "--tolerance" :: t :: rest -> tolerance := Some (float_of_string t); parse rest
    | arg :: _ -> fail "unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !write_to with
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      emit ~dir;
      List.iter
        (fun f ->
          match Report.check_file (Filename.concat dir f) with
          | Ok n -> Printf.printf "baseline %s: %d rows\n%!" f n
          | Error e -> fail "%s" e)
        files
  | None ->
      emit ~dir:".";
      (* Schema gate: every emitted file must parse into metric rows. *)
      let current =
        List.concat_map
          (fun f ->
            match Report.check_file f with
            | Ok _ -> load_rows f
            | Error e -> fail "%s" e)
          files
      in
      let dir = Option.value !baselines ~default:"baselines" in
      let baseline =
        List.concat_map
          (fun f ->
            let path = Filename.concat dir f in
            if Sys.file_exists path then load_rows path
            else begin
              Printf.eprintf "bench-regress: no baseline %s (skipping)\n%!" path;
              []
            end)
          files
      in
      let comparisons =
        Report.compare_rows ?tolerance:!tolerance ~baseline ~current ()
      in
      print_string (Report.render_comparison comparisons);
      match Report.regressions comparisons with
      | [] -> Printf.printf "bench-regress: ok (%d metrics)\n%!" (List.length current)
      | rs ->
          Printf.eprintf "bench-regress: %d metric(s) regressed\n%!" (List.length rs);
          exit 1
