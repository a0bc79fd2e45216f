(* Socket-transport bench: the same closed-loop SmallBank workload
   measured twice — once in a single process on the deterministic
   simulator (all four replicas' crypto serialized on one core, virtual
   clock free to run ahead of the wall), and once across a real
   four-process socket fleet spawned from a manifest (each replica its
   own OS process, latency and scheduling from the kernel). Writes
   BENCH_net.json in the rows/1 schema: committed counts are exact,
   everything wall-clock-derived is info-tier (it moves with the
   machine, not the code).

   The executable doubles as the fleet's serve body: re-invoked as
   `net.exe __serve MANIFEST ID` it becomes one replica process, so the
   bench needs no other binary on hand. *)

open Iaccf_core
module Smallbank = Iaccf_app.Smallbank
module Latency = Iaccf_sim.Latency
module Sched = Iaccf_sim.Sched
module Obs = Iaccf_obs.Obs
module Rng = Iaccf_util.Rng
module Report = Iaccf_report.Report
module Pump = Iaccf_load.Pump
module Manifest = Iaccf_net.Manifest
module Serve = Iaccf_net.Serve
module Supervisor = Iaccf_net.Supervisor
module Driver = Iaccf_net.Driver

(* Re-exec dispatch: as a serve process we never reach the bench body. *)
let () =
  if Array.length Sys.argv >= 4 && Sys.argv.(1) = "__serve" then begin
    (match Manifest.load Sys.argv.(2) with
    | Error e ->
        Printf.eprintf "net bench serve: %s\n" e;
        exit 2
    | Ok m ->
        ignore (Serve.main ~manifest:m ~id:(int_of_string Sys.argv.(3)) ()));
    exit 0
  end

let total = 200
let seed = 1
let concurrency = 16
let accounts = 20
let percentile p xs = Obs.Histogram.percentile_of_list p xs

type run = {
  committed : int;
  setup_s : float;  (* the untimed set-up transactions, wall clock *)
  wall_s : float;
  virtual_ms : float;  (* 0 for the socket run: its clock IS the wall *)
  latencies_ms : float list;  (* virtual for sim, wall for sockets *)
}

(* Single-process baseline: the identical op stream (same setup, same
   [Rng.create seed] draw order) through one simulator cluster. *)
let run_sim () =
  let cluster =
    Cluster.make ~seed ~n:4 ~latency:Latency.dedicated_cluster
      ~app:(Smallbank.app ()) ()
  in
  let client = Cluster.add_client cluster () in
  let setup0 = Unix.gettimeofday () in
  let setup = Smallbank.setup_ops ~accounts ~initial_balance:1_000 in
  let setup_done = ref 0 in
  let rec submit_setup = function
    | [] -> ()
    | (op : Smallbank.op) :: rest ->
        Client.submit client ~proc:op.Smallbank.op_proc
          ~args:op.Smallbank.op_args
          ~on_complete:(fun _ ->
            incr setup_done;
            submit_setup rest)
          ()
  in
  submit_setup setup;
  let n_setup = List.length setup in
  if
    not
      (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () ->
           !setup_done >= n_setup))
  then begin
    Printf.eprintf "FAIL: sim setup stalled at %d/%d\n%!" !setup_done n_setup;
    exit 1
  end;
  let rng = Rng.create seed in
  let v0 = Sched.now (Cluster.sched cluster) in
  let wall0 = Unix.gettimeofday () in
  let _, completed =
    Pump.closed_loop ~total ~concurrency
      ~submit:(fun ~seq:_ ~on_complete ->
        let op = Smallbank.random_op rng ~accounts in
        Client.submit client ~proc:op.Smallbank.op_proc
          ~args:op.Smallbank.op_args
          ~on_complete:(fun _ -> on_complete ())
          ())
      ()
  in
  if
    not
      (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () ->
           !completed >= total))
  then begin
    Printf.eprintf "FAIL: sim load stalled at %d/%d\n%!" !completed total;
    exit 1
  end;
  {
    committed = !completed;
    setup_s = wall0 -. setup0;
    wall_s = Unix.gettimeofday () -. wall0;
    virtual_ms = Sched.now (Cluster.sched cluster) -. v0;
    latencies_ms = Client.latencies_ms client;
  }

(* Four-process socket fleet, same workload through the socket driver. *)
let run_sockets () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-net-bench-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let m = Manifest.local ~seed ~n:4 ~app:"smallbank" ~dir () in
  let mfile = Filename.concat dir "manifest.json" in
  Manifest.save m mfile;
  let children =
    Supervisor.spawn_fleet ~manifest:m
      ~serve_argv:(fun ~id ->
        [| Sys.executable_name; "__serve"; mfile; string_of_int id |])
  in
  let cleanup () =
    ignore (Supervisor.shutdown children);
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  if not (Supervisor.wait_ready m) then begin
    Printf.eprintf "FAIL: socket fleet not ready (see %s/replica-*.log)\n%!" dir;
    exit 1
  end;
  let h = Driver.connect m in
  let outcome = Driver.run_smallbank ~concurrency ~total h ~seed () in
  Driver.close h;
  match outcome with
  | Error e ->
      Printf.eprintf "FAIL: socket fleet: %s\n%!" e;
      exit 1
  | Ok r ->
      {
        committed = r.Driver.r_completed;
        setup_s = r.Driver.r_setup_s;
        wall_s = r.Driver.r_wall_s;
        virtual_ms = 0.0;
        latencies_ms = r.Driver.r_latencies_ms;
      }

let tx_s run = if run.wall_s > 0.0 then float_of_int run.committed /. run.wall_s else 0.0

let rows_of ~series run =
  let open Report in
  [
    row ~bench:"net" ~series ~metric:"committed" ~gate:Exact
      (float_of_int run.committed);
    row ~bench:"net" ~series ~metric:"wall_s" ~gate:Info run.wall_s;
    row ~bench:"net" ~series ~metric:"wall_tx_s" ~gate:Info (tx_s run);
    row ~bench:"net" ~series ~metric:"p50_latency_ms" ~gate:Info
      (percentile 0.50 run.latencies_ms);
    row ~bench:"net" ~series ~metric:"p95_latency_ms" ~gate:Info
      (percentile 0.95 run.latencies_ms);
    row ~bench:"net" ~series ~metric:"p99_latency_ms" ~gate:Info
      (percentile 0.99 run.latencies_ms);
  ]

let () =
  Printf.printf "=== net: single-process simulator baseline ===\n%!";
  let sim = run_sim () in
  Printf.printf
    "  sim      %4d txs  %6.2fs wall  %7.0f tx/s wall  %8.1f virtual ms  setup %.2fs\n%!"
    sim.committed sim.wall_s (tx_s sim) sim.virtual_ms sim.setup_s;
  Printf.printf "=== net: 4-process socket fleet, same workload ===\n%!";
  let sock = run_sockets () in
  Printf.printf
    "  sockets  %4d txs  %6.2fs wall  %7.0f tx/s wall  p50 %.1f ms  p99 %.1f ms  setup %.2fs\n%!"
    sock.committed sock.wall_s (tx_s sock)
    (percentile 0.50 sock.latencies_ms)
    (percentile 0.99 sock.latencies_ms)
    sock.setup_s;
  if sim.committed <> total || sock.committed <> total then begin
    Printf.eprintf "FAIL: expected %d committed on both transports (%d / %d)\n%!"
      total sim.committed sock.committed;
    exit 1
  end;
  let speedup = if tx_s sim > 0.0 then tx_s sock /. tx_s sim else 0.0 in
  Printf.printf "  socket fleet at %.2fx the single-process wall throughput\n%!"
    speedup;
  let rows =
    rows_of ~series:"sim-1proc" sim
    @ [
        Report.row ~bench:"net" ~series:"sim-1proc" ~metric:"virtual_ms"
          ~gate:Report.Ms sim.virtual_ms;
        Report.row ~bench:"net" ~series:"sim-1proc" ~metric:"virtual_tx_s"
          ~gate:Report.Info
          (if sim.virtual_ms > 0.0 then
             float_of_int sim.committed /. (sim.virtual_ms /. 1000.0)
           else 0.0);
      ]
    @ rows_of ~series:"sockets-4proc" sock
    @ [
        Report.row ~bench:"net" ~series:"sockets-4proc"
          ~metric:"speedup_wall_vs_1proc" ~gate:Report.Info speedup;
      ]
  in
  Report.write_rows ~file:"BENCH_net.json" ~bench:"net"
    ~meta:
      [
        ("txs", string_of_int total);
        ("concurrency", string_of_int concurrency);
        ("transport", "unix-sockets");
      ]
    rows;
  Printf.eprintf "wrote BENCH_net.json\n%!"
