(* Open-loop saturation bench: sweep Poisson offered rates over a
   deliberately capacity-limited cluster (small batches, one batch in
   flight) with admission control on, and record the throughput-latency
   curve bending at the knee. Also checks the session table's memory
   story (>= 100k identities well under a gigabyte). Writes
   BENCH_load.json in the rows/1 schema. *)

open Iaccf_core
module Load = Iaccf_load
module Smallbank = Iaccf_app.Smallbank
module Latency = Iaccf_sim.Latency
module Obs = Iaccf_obs.Obs
module Report = Iaccf_report.Report

let percentile p xs = Obs.Histogram.percentile_of_list p xs

(* Service capacity is max_batch per commit cycle: with one batch in
   flight (pipeline 1) over 5 ms one-way links, the pre-prepare ->
   prepare -> nonce-reveal path takes ~15 ms, so about 2 tx / 15 ms =
   ~130 tx/s. The sweep brackets that knee from well under capacity to
   ~2.3x over it. *)
let params =
  {
    Replica.pipeline = 1;
    checkpoint_interval = 50;
    max_batch = 2;
    batch_delay_ms = 4.0;
    vc_timeout_ms = 100_000.0;
    variant = Variant.full;
    snapshot_interval = 0;
    admission_queue = 64;
  }

let offered_rates = [ 25.0; 50.0; 75.0; 150.0; 300.0 ]
let below_knee_rate = 75.0
let duration_ms = 1_000.0
let accounts = 200

type open_result = {
  or_rate : float;
  or_offered : int;
  or_committed : int;
  or_admitted : int;
  or_rejected : int;  (* primary-side sheds (load.rejected) *)
  or_busy_seen : int;  (* Busy messages the generator observed *)
  or_retries : int;
  or_queue_peak : float;
  or_p50 : float;
  or_p95 : float;
  or_p99 : float;
  or_drain_virtual_ms : float;
  or_wall_s : float;
}

let run_open ?(seed = 77) ~rate () =
  let obs = Obs.passive () in
  let cluster =
    Cluster.make ~seed ~n:4 ~params
      ~latency:(fun _rng -> Latency.constant 5.0)
      ~app:(Smallbank.app ()) ~obs ()
  in
  Harness.preload_accounts cluster ~accounts ~initial_balance:10_000;
  let gen =
    Load.Gen.create ~cluster ~sessions:4096 ~seed
      ~mix:
        (Load.Mix.smallbank
           ~rng:(Iaccf_util.Rng.create (seed + 1))
           ~accounts ~theta:0.99 ())
      ~arrival:(Load.Arrival.Poisson rate) ()
  in
  let wall_start = Unix.gettimeofday () in
  let t0 = Iaccf_sim.Sched.now (Cluster.sched cluster) in
  Load.Gen.start gen ~duration_ms;
  let drained = Load.Gen.drain gen ~timeout_ms:600_000.0 () in
  let wall = Unix.gettimeofday () -. wall_start in
  let virtual_ms = Iaccf_sim.Sched.now (Cluster.sched cluster) -. t0 in
  let s = Load.Gen.stats gen in
  if not drained then
    Printf.eprintf "warning: rate %.0f/s left %d outstanding\n%!" rate
      s.Load.Gen.ls_outstanding;
  {
    or_rate = rate;
    or_offered = s.Load.Gen.ls_offered;
    or_committed = s.Load.Gen.ls_committed;
    or_admitted = Obs.counter_value obs "load.admitted";
    or_rejected = Obs.counter_value obs "load.rejected";
    or_busy_seen = s.Load.Gen.ls_rejected;
    or_retries = s.Load.Gen.ls_retries;
    or_queue_peak = Obs.gauge_max_value obs "queue.depth";
    or_p50 = percentile 0.50 s.Load.Gen.ls_latencies_ms;
    or_p95 = percentile 0.95 s.Load.Gen.ls_latencies_ms;
    or_p99 = percentile 0.99 s.Load.Gen.ls_latencies_ms;
    or_drain_virtual_ms = virtual_ms;
    or_wall_s = wall;
  }

let rows_of_open r =
  let open Report in
  let series = Printf.sprintf "poisson-%.0f" r.or_rate in
  [
    row ~bench:"load" ~series ~metric:"offered" ~gate:Exact
      (float_of_int r.or_offered);
    row ~bench:"load" ~series ~metric:"committed" ~gate:Exact
      (float_of_int r.or_committed);
    row ~bench:"load" ~series ~metric:"admitted" ~gate:Exact
      (float_of_int r.or_admitted);
    row ~bench:"load" ~series ~metric:"rejected" ~gate:Exact
      (float_of_int r.or_rejected);
    row ~bench:"load" ~series ~metric:"busy_seen" ~gate:Exact
      (float_of_int r.or_busy_seen);
    row ~bench:"load" ~series ~metric:"retries" ~gate:Exact
      (float_of_int r.or_retries);
    row ~bench:"load" ~series ~metric:"queue_peak" ~gate:Exact r.or_queue_peak;
    row ~bench:"load" ~series ~metric:"p50_latency_ms" ~gate:Ms r.or_p50;
    row ~bench:"load" ~series ~metric:"p95_latency_ms" ~gate:Ms r.or_p95;
    row ~bench:"load" ~series ~metric:"p99_latency_ms" ~gate:Ms r.or_p99;
    row ~bench:"load" ~series ~metric:"drain_virtual_ms" ~gate:Ms
      r.or_drain_virtual_ms;
    row ~bench:"load" ~series ~metric:"wall_s" ~gate:Info r.or_wall_s;
    row ~bench:"load" ~series ~metric:"goodput_tx_s" ~gate:Info
      (if r.or_drain_virtual_ms > 0.0 then
         float_of_int r.or_committed /. (r.or_drain_virtual_ms /. 1000.0)
       else 0.0);
  ]

let print_open r =
  Printf.printf
    "  %6.0f/s offered %4d  committed %4d  admitted %4d  rejected %4d  \
     qpeak %3.0f  p50 %8.2f ms  p95 %8.2f ms  p99 %8.2f ms\n%!"
    r.or_rate r.or_offered r.or_committed r.or_admitted r.or_rejected
    r.or_queue_peak r.or_p50 r.or_p95 r.or_p99

(* /proc/self/status VmRSS, in MiB; 0.0 where unavailable. *)
let rss_mib () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          else scan ()
      | exception End_of_file -> 0.0
    in
    scan ()
  with Sys_error _ -> 0.0

(* Session-table scale: derive >= 100k distinct signing identities
   through the bounded key cache and show the table stays far under a
   gigabyte (its only per-session state is the nonce counter). *)
let session_scale () =
  let n = 120_000 in
  let cluster = Cluster.make ~seed:5 ~n:4 () in
  let table =
    Load.Session.create ~key_cache:4096 ~seed:"scale"
      ~genesis:(Cluster.genesis cluster) ~n ()
  in
  let wall_start = Unix.gettimeofday () in
  for id = 0 to n - 1 do
    ignore (Load.Session.public_key table ~id)
  done;
  let wall = Unix.gettimeofday () -. wall_start in
  let rss = rss_mib () in
  let distinct = Load.Session.derived_keys table in
  Printf.printf
    "  session scale: %d identities derived in %.1f s, RSS %.0f MiB\n%!"
    distinct wall rss;
  if distinct < 100_000 then begin
    Printf.eprintf "FAIL: expected >= 100k distinct identities, got %d\n%!"
      distinct;
    exit 1
  end;
  if rss > 0.0 && rss >= 1024.0 then begin
    Printf.eprintf "FAIL: session table run resident %.0f MiB >= 1 GiB\n%!" rss;
    exit 1
  end;
  let open Report in
  [
    row ~bench:"load" ~series:"sessions" ~metric:"distinct_identities"
      ~gate:Exact (float_of_int distinct);
    row ~bench:"load" ~series:"sessions" ~metric:"rss_mib" ~gate:Info rss;
    row ~bench:"load" ~series:"sessions" ~metric:"derive_wall_s" ~gate:Info
      wall;
  ]

(* The saturation-curve shape checks from the experiment definition:
   below the knee p50 stays within ~2x of the most lightly loaded run;
   past it latency grows super-linearly (retry/queueing delays dominate)
   and the primary visibly sheds load. *)
let knee_checks results =
  match results with
  | base :: rest when rest <> [] ->
      let top = List.nth results (List.length results - 1) in
      let below_knee =
        List.filter (fun r -> r.or_rate <= below_knee_rate) rest
      in
      List.iter
        (fun r ->
          if r.or_p50 > (2.0 *. base.or_p50) +. 5.0 then begin
            Printf.eprintf
              "FAIL: below-knee p50 at %.0f/s is %.2f ms > 2x baseline %.2f ms\n%!"
              r.or_rate r.or_p50 base.or_p50;
            exit 1
          end)
        below_knee;
      if top.or_p50 < 4.0 *. base.or_p50 then begin
        Printf.eprintf
          "FAIL: past-knee p50 %.2f ms not super-linear vs baseline %.2f ms\n%!"
          top.or_p50 base.or_p50;
        exit 1
      end;
      if top.or_rejected = 0 then begin
        Printf.eprintf "FAIL: overload run never tripped admission control\n%!";
        exit 1
      end;
      Printf.printf
        "  knee checks pass: baseline p50 %.2f ms, overload p50 %.2f ms, %d sheds\n%!"
        base.or_p50 top.or_p50 top.or_rejected
  | _ -> ()

let () =
  Printf.printf "=== open-loop saturation sweep (capacity ~130 tx/s) ===\n%!";
  let results = List.map (fun rate -> run_open ~rate ()) offered_rates in
  List.iter print_open results;
  knee_checks results;
  Printf.printf "=== session-table scale ===\n%!";
  let session_rows = session_scale () in
  let rows = List.concat_map rows_of_open results @ session_rows in
  Report.write_rows ~file:"BENCH_load.json" ~bench:"load"
    ~meta:[ ("duration_ms", Printf.sprintf "%.0f" duration_ms) ]
    rows;
  Printf.eprintf "wrote BENCH_load.json\n%!"
