(* Shared drivers for the table/figure benches: closed-loop SmallBank load
   on an IA-CCF cluster (and on the baselines), measured as real compute
   time for throughput and virtual network time for latency. See
   EXPERIMENTS.md for how this maps to the paper's testbeds. *)

open Iaccf_core
module Smallbank = Iaccf_app.Smallbank
module Latency = Iaccf_sim.Latency
module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Rng = Iaccf_util.Rng
module Obs = Iaccf_obs.Obs
module Pump = Iaccf_load.Pump

type run_result = {
  rr_label : string;
  rr_txs : int;
  rr_wall_s : float;
  rr_throughput : float; (* transactions per second of real compute *)
  rr_avg_latency_ms : float; (* virtual: network model + batching *)
  rr_p50_latency_ms : float;
  rr_p99_latency_ms : float;
  rr_sigs_made : int;
  rr_sigs_verified : int;
  rr_phases : (string * float * float * float) list;
      (* per-phase latency breakdown from the obs registry:
         (histogram name, p50, p90, p99); empty for the baselines *)
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fresh_dir label =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-bench-%s-%d" label (Unix.getpid ()))
  in
  rm_rf path;
  path

(* Nearest-rank percentile, shared with the runtime metrics so bench and
   [iaccf stats] agree on what "p99" means. *)
let percentile p xs = Obs.Histogram.percentile_of_list p xs

let summarize ?(phases = []) ~label ~txs ~wall ~latencies ~sigs_made
    ~sigs_verified () =
  {
    rr_label = label;
    rr_txs = txs;
    rr_wall_s = wall;
    rr_throughput = (if wall > 0.0 then float_of_int txs /. wall else 0.0);
    rr_avg_latency_ms =
      (match latencies with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    rr_p50_latency_ms = percentile 0.50 latencies;
    rr_p99_latency_ms = percentile 0.99 latencies;
    rr_sigs_made = sigs_made;
    rr_sigs_verified = sigs_verified;
    rr_phases = phases;
  }

(* The per-phase histograms a run's registry may have accumulated. *)
let phase_histogram_names =
  [
    "lat.preprepare_to_prepared_ms";
    "lat.prepared_to_commit_ms";
    "lat.preprepare_to_commit_ms";
    "lat.commit_to_receipt_ms";
    "lat.request_e2e_ms";
  ]

let phase_breakdown obs =
  List.filter_map
    (fun name ->
      let h = Obs.histogram obs name in
      if Obs.Histogram.count h = 0 then None
      else
        Some
          ( name,
            Obs.Histogram.percentile h 0.50,
            Obs.Histogram.percentile h 0.90,
            Obs.Histogram.percentile h 0.99 ))
    phase_histogram_names

let preload_accounts cluster ~accounts ~initial_balance =
  let kvs =
    List.concat_map
      (fun id ->
        [
          (Printf.sprintf "sb/c/%d" id, string_of_int initial_balance);
          (Printf.sprintf "sb/s/%d" id, string_of_int initial_balance);
        ])
      (List.init accounts Fun.id)
  in
  List.iter (fun r -> Replica.preload_state r kvs) (Cluster.replicas cluster)

(* Closed-loop driver: [concurrency] operations in flight; every completion
   submits the next until [total] have completed. [inspect] sees the
   cluster once the run is over. *)
let run_iaccf ?(label = "IA-CCF") ?(n = 4) ?(variant = Variant.full)
    ?(latency = Latency.dedicated_cluster) ?(accounts = 100) ?(total = 300)
    ?(concurrency = 64) ?(pipeline = 2) ?(checkpoint_interval = 50)
    ?(max_batch = 100) ?(empty_requests = false) ?(seed = 42) ?obs ?persist
    ?(inspect = ignore) () =
  let params =
    {
      Replica.pipeline;
      checkpoint_interval;
      max_batch;
      batch_delay_ms = 1.0;
      vc_timeout_ms = 100_000.0 (* no view changes during load runs *);
      variant;
      snapshot_interval = 0;
      admission_queue = 0;
    }
  in
  (* Metrics on (histograms, marks), tracing off: load runs want the
     per-phase breakdown without paying for an event per message. *)
  let obs =
    match obs with
    | Some o -> o
    | None -> Obs.create ~metrics:true ~tracing:false ()
  in
  let cluster =
    Cluster.make ~seed ~n ~params ~latency ~app:(Smallbank.app ()) ?persist ~obs ()
  in
  if accounts > 0 then preload_accounts cluster ~accounts ~initial_balance:10_000;
  let client =
    Cluster.add_client cluster ~verify_receipts:false
      ~sign_requests:variant.Variant.verify_client_sigs ()
  in
  let rng = Rng.create (seed + 1) in
  let completed = ref 0 in
  let submitted = ref 0 in
  let next_op () =
    if empty_requests then ("noop", "")
    else begin
      let op = Smallbank.random_op rng ~accounts in
      (op.Smallbank.op_proc, op.Smallbank.op_args)
    end
  in
  let committed_txs () =
    (Replica.stats (Cluster.replica cluster 0)).Replica.txs_committed
  in
  let wall_start = Unix.gettimeofday () in
  let ok =
    if variant.Variant.gen_receipts then begin
      (* Closed loop on receipt completions. *)
      let _, pumped =
        Pump.closed_loop ~total ~concurrency
          ~submit:(fun ~seq:_ ~on_complete ->
            let proc, args = next_op () in
            Client.submit client ~proc ~args
              ~on_complete:(fun _ -> on_complete ())
              ())
          ()
      in
      let ok =
        Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
            !pumped >= total)
      in
      completed := !pumped;
      ok
    end
    else begin
      (* No receipts are produced: drive in waves and complete on the
         replicas' commit counters (throughput-only variants). *)
      let ok, pumped =
        Pump.waves ~total ~concurrency
          ~submit:(fun ~seq:_ ->
            let proc, args = next_op () in
            Client.submit client ~proc ~args ())
          ~await:(fun ~target ->
            Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
                committed_txs () >= target))
      in
      submitted := pumped;
      completed := committed_txs ();
      ok
    end
  in
  let wall = Unix.gettimeofday () -. wall_start in
  if not ok then Printf.eprintf "warning: %s finished only %d/%d\n%!" label !completed total;
  inspect cluster;
  let sigs_made, sigs_verified =
    List.fold_left
      (fun (sm, sv) r ->
        let st = Replica.stats r in
        (sm + st.Replica.signatures_made, sv + st.Replica.signatures_verified))
      (0, 0) (Cluster.replicas cluster)
  in
  summarize ~label ~txs:!completed ~wall ~latencies:(Client.latencies_ms client)
    ~sigs_made ~sigs_verified ~phases:(phase_breakdown obs) ()

(* Open-loop driver: arrivals come from a rate process on the virtual
   clock regardless of completions, through the shared load generator
   ({!Iaccf_load.Gen}), over a deliberately capacity-limited service
   (small batches, one in flight, real link latency) with admission
   control on — the configuration whose saturation knee the fig4
   open-loop series and bench/load.exe sweep. *)
let run_iaccf_open ?(label = "IA-CCF-open") ?(n = 4) ?(accounts = 100)
    ?(duration_ms = 1_000.0) ?(sessions = 2048) ?(seed = 42)
    ?(admission_queue = 64) ~rate () =
  let params =
    {
      Replica.pipeline = 1;
      checkpoint_interval = 50;
      max_batch = 2;
      batch_delay_ms = 4.0;
      vc_timeout_ms = 100_000.0;
      variant = Variant.full;
      snapshot_interval = 0;
      admission_queue;
    }
  in
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster =
    Cluster.make ~seed ~n ~params
      ~latency:(fun _ -> Latency.constant 5.0)
      ~app:(Smallbank.app ()) ~obs ()
  in
  if accounts > 0 then preload_accounts cluster ~accounts ~initial_balance:10_000;
  let gen =
    Iaccf_load.Gen.create ~cluster ~sessions ~seed
      ~mix:(Iaccf_load.Mix.smallbank ~rng:(Rng.create (seed + 1)) ~accounts ())
      ~arrival:(Iaccf_load.Arrival.Poisson rate) ()
  in
  let wall_start = Unix.gettimeofday () in
  Iaccf_load.Gen.start gen ~duration_ms;
  let drained = Iaccf_load.Gen.drain gen ~timeout_ms:600_000.0 () in
  let wall = Unix.gettimeofday () -. wall_start in
  let s = Iaccf_load.Gen.stats gen in
  if not drained then
    Printf.eprintf "warning: %s left %d outstanding\n%!" label
      s.Iaccf_load.Gen.ls_outstanding;
  let sigs_made, sigs_verified =
    List.fold_left
      (fun (sm, sv) r ->
        let st = Replica.stats r in
        (sm + st.Replica.signatures_made, sv + st.Replica.signatures_verified))
      (0, 0) (Cluster.replicas cluster)
  in
  summarize ~label ~txs:s.Iaccf_load.Gen.ls_committed ~wall
    ~latencies:s.Iaccf_load.Gen.ls_latencies_ms ~sigs_made ~sigs_verified
    ~phases:(phase_breakdown obs) ()

let run_hotstuff ?(label = "HotStuff") ?(n = 4)
    ?(latency = Latency.dedicated_cluster) ?(total = 300) ?(concurrency = 64)
    ?(seed = 43) () =
  let sched = Sched.create () in
  let rng = Rng.create seed in
  let network = Network.create ~sched ~latency:(latency (Rng.split rng)) () in
  let cluster = Iaccf_baselines.Hotstuff.spawn ~n ~sched ~network ~seed () in
  let client = Iaccf_baselines.Hotstuff.client cluster ~address:100 ~sched ~network in
  let wall_start = Unix.gettimeofday () in
  let _, completed =
    Pump.closed_loop ~total ~concurrency
      ~submit:(fun ~seq ~on_complete ->
        Iaccf_baselines.Hotstuff.submit client
          ~payload:(Printf.sprintf "cmd-%d" seq)
          ~on_complete:(fun ~latency_ms:_ -> on_complete ()))
      ()
  in
  let deadline = Sched.now sched +. 10_000_000.0 in
  let rec drive () =
    if !completed < total && Sched.now sched < deadline && Sched.step sched then drive ()
  in
  drive ();
  let wall = Unix.gettimeofday () -. wall_start in
  summarize ~label ~txs:!completed ~wall
    ~latencies:(Iaccf_baselines.Hotstuff.client_latencies client)
    ~sigs_made:(Iaccf_baselines.Hotstuff.signatures_made cluster)
    ~sigs_verified:(Iaccf_baselines.Hotstuff.signatures_verified cluster) ()

let run_fabric ?(label = "Fabric") ?(peers = 4)
    ?(latency = Latency.dedicated_cluster) ?(total = 300) ?(concurrency = 64)
    ?(seed = 44) () =
  let sched = Sched.create () in
  let rng = Rng.create seed in
  let network = Network.create ~sched ~latency:(latency (Rng.split rng)) () in
  let cluster =
    Iaccf_baselines.Fabric.spawn ~peers ~endorsement_policy:2 ~sched ~network ~seed ()
  in
  let client = Iaccf_baselines.Fabric.client cluster ~address:100 ~sched ~network in
  let wall_start = Unix.gettimeofday () in
  let _, completed =
    Pump.closed_loop ~total ~concurrency
      ~submit:(fun ~seq ~on_complete ->
        Iaccf_baselines.Fabric.submit client
          ~payload:(Printf.sprintf "tx-%d" seq)
          ~on_complete:(fun ~latency_ms:_ -> on_complete ()))
      ()
  in
  let deadline = Sched.now sched +. 10_000_000.0 in
  let rec drive () =
    if !completed < total && Sched.now sched < deadline && Sched.step sched then drive ()
  in
  drive ();
  let wall = Unix.gettimeofday () -. wall_start in
  summarize ~label ~txs:!completed ~wall
    ~latencies:(Iaccf_baselines.Fabric.client_latencies client)
    ~sigs_made:(Iaccf_baselines.Fabric.signatures_made cluster)
    ~sigs_verified:(Iaccf_baselines.Fabric.signatures_verified cluster) ()

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_result ?(phases = false) r =
  Printf.printf "%-28s %6d tx  %8.1f tx/s  avg %7.2f ms  p50 %7.2f ms  p99 %7.2f ms  (sigs %d/%d)\n%!"
    r.rr_label r.rr_txs r.rr_throughput r.rr_avg_latency_ms r.rr_p50_latency_ms
    r.rr_p99_latency_ms r.rr_sigs_made r.rr_sigs_verified;
  if phases then
    List.iter
      (fun (name, p50, p90, p99) ->
        Printf.printf "  %-34s p50 %7.2f ms  p90 %7.2f ms  p99 %7.2f ms\n%!"
          name p50 p90 p99)
      r.rr_phases

(* Flatten a [run_result] into the report layer's gated rows: counts are
   seed-deterministic (exact gate), virtual-clock latencies get the ms
   tolerance gate, wall-clock-derived numbers are informational. Every
   bench that measures [run_result]s writes its BENCH_<name>.json from
   these rows. *)
let rows_of_result ~bench r =
  let open Iaccf_report.Report in
  let series = r.rr_label in
  [
    row ~bench ~series ~metric:"txs" ~gate:Exact (float_of_int r.rr_txs);
    row ~bench ~series ~metric:"sigs_made" ~gate:Exact (float_of_int r.rr_sigs_made);
    row ~bench ~series ~metric:"sigs_verified" ~gate:Exact
      (float_of_int r.rr_sigs_verified);
    row ~bench ~series ~metric:"avg_latency_ms" ~gate:Ms r.rr_avg_latency_ms;
    row ~bench ~series ~metric:"p50_latency_ms" ~gate:Ms r.rr_p50_latency_ms;
    row ~bench ~series ~metric:"p99_latency_ms" ~gate:Ms r.rr_p99_latency_ms;
    row ~bench ~series ~metric:"wall_s" ~gate:Info r.rr_wall_s;
    row ~bench ~series ~metric:"throughput_tx_s" ~gate:Info r.rr_throughput;
  ]
  @ List.concat_map
      (fun (name, p50, p90, p99) ->
        [
          row ~bench ~series ~metric:(name ^ ".p50_ms") ~gate:Ms p50;
          row ~bench ~series ~metric:(name ^ ".p90_ms") ~gate:Ms p90;
          row ~bench ~series ~metric:(name ^ ".p99_ms") ~gate:Ms p99;
        ])
      r.rr_phases
