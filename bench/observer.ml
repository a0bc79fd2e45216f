(* Observer read tier: aggregate verified-read throughput as observers are
   added, plus status-poll latency through an observer's front door.

   Each observer gets its own closed-loop pool of verifying readers with
   fixed per-observer concurrency, so offered read load grows with the
   observer count while the 4-replica write tier stays untouched —
   aggregate read throughput (reads per second of virtual time) should
   scale roughly linearly. Writes `BENCH_observer.json` via the shared
   harness emitter. *)

open Iaccf_core
module Observer = Iaccf_observer.Observer
module Reader = Iaccf_observer.Reader
module Sched = Iaccf_sim.Sched
module Obs = Iaccf_obs.Obs
module Pump = Iaccf_load.Pump

let params = { Replica.default_params with max_batch = 4 }
let reads_per_observer = 300
let readers_per_observer = 4
let status_polls = 200

(* A service with some committed history: enough counter writes that reads
   have a receipt-carrying writer well behind the stable horizon. *)
let build_service ~seed =
  let cluster = Cluster.make ~seed ~n:4 ~params () in
  let client = Cluster.add_client cluster () in
  let phase proc n =
    let completed = ref 0 in
    for _ = 1 to n do
      Client.submit client ~proc ~args:"1"
        ~on_complete:(fun _ -> incr completed)
        ()
    done;
    if
      not
        (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () ->
             !completed >= n))
    then failwith "bench service workload did not complete"
  in
  phase "counter/add" 30;
  (* No-op batches strictly after the writes, so the last counter write is
     deep enough to have commit evidence (and a receipt) behind it. *)
  phase "noop" 8;
  cluster

let spawn_observers cluster ~count =
  let observers =
    List.init count (fun i ->
        Observer.spawn cluster
          ~addr:(Observer.default_base + i)
          ~source:(i mod 4) ())
  in
  let caught_up () =
    let head = Replica.last_committed (Cluster.replica cluster 0) in
    List.for_all (fun o -> Observer.synced_upto o >= head) observers
  in
  if not (Cluster.run_until cluster ~timeout_ms:600_000.0 caught_up) then
    failwith "observers did not catch up";
  observers

(* Closed-loop verified reads against one observer; latencies in virtual
   milliseconds land in [latencies]. *)
let drive_reads cluster reader ~observer ~total ~concurrency ~latencies
    ~verified ~done_count =
  let sched = Cluster.sched cluster in
  ignore
    (Pump.closed_loop ~total ~concurrency
       ~submit:(fun ~seq:_ ~on_complete ->
         let t0 = Sched.now sched in
         Reader.read reader ~observer ~key:"counter" (fun r ->
             latencies := (Sched.now sched -. t0) :: !latencies;
             if r.Reader.rd_verified then incr verified;
             incr done_count;
             on_complete ()))
       ())

let read_throughput_run cluster ~observers =
  let sched = Cluster.sched cluster in
  let count = List.length observers in
  let total = count * reads_per_observer in
  let latencies = ref [] in
  let verified = ref 0 in
  let done_count = ref 0 in
  let t0 = Sched.now sched in
  List.iteri
    (fun i o ->
      let reader =
        Reader.create ~address:(300 + i) ~genesis:(Cluster.genesis cluster)
          ~pipeline:params.Replica.pipeline ~sched
          ~network:(Cluster.network cluster) ()
      in
      drive_reads cluster reader ~observer:(Observer.address o)
        ~total:reads_per_observer ~concurrency:readers_per_observer ~latencies
        ~verified ~done_count)
    observers;
  if
    not
      (Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
           !done_count >= total))
  then failwith "read workload did not complete";
  let virtual_s = (Sched.now sched -. t0) /. 1000.0 in
  if !verified < total then
    Printf.eprintf "warning: only %d/%d reads verified\n%!" !verified total;
  Harness.summarize
    ~label:(Printf.sprintf "verified-reads/observers=%d" count)
    ~txs:total ~wall:virtual_s ~latencies:!latencies ~sigs_made:0
    ~sigs_verified:0 ()

let status_poll_run cluster ~observer =
  let sched = Cluster.sched cluster in
  let reader =
    Reader.create ~address:299 ~genesis:(Cluster.genesis cluster)
      ~pipeline:params.Replica.pipeline ~sched
      ~network:(Cluster.network cluster) ()
  in
  (* A committed, stable transaction ID to poll. *)
  let r0 = Cluster.replica cluster 0 in
  let txid = { Status.view = Replica.view r0; seqno = 1 } in
  let latencies = ref [] in
  let done_count = ref 0 in
  let t0 = Sched.now sched in
  let rec poll_one n =
    if n > 0 then begin
      let t = Sched.now sched in
      Reader.wait_for_commit reader ~observer ~txid (fun _ ->
          latencies := (Sched.now sched -. t) :: !latencies;
          incr done_count;
          poll_one (n - 1))
    end
  in
  poll_one status_polls;
  if
    not
      (Cluster.run_until cluster ~timeout_ms:10_000_000.0 (fun () ->
           !done_count >= status_polls))
  then failwith "status polls did not complete";
  let virtual_s = (Sched.now sched -. t0) /. 1000.0 in
  Harness.summarize ~label:"status-poll" ~txs:status_polls ~wall:virtual_s
    ~latencies:!latencies ~sigs_made:0 ~sigs_verified:0 ()

let () =
  Harness.print_header "Observer read tier";
  let results =
    List.map
      (fun count ->
        let cluster = build_service ~seed:(50 + count) in
        let observers = spawn_observers cluster ~count in
        let r = read_throughput_run cluster ~observers in
        Harness.print_result r;
        r)
      [ 1; 2; 4; 8 ]
  in
  let status =
    let cluster = build_service ~seed:49 in
    let observers = spawn_observers cluster ~count:1 in
    let r =
      status_poll_run cluster ~observer:(Observer.address (List.hd observers))
    in
    Harness.print_result r;
    r
  in
  Iaccf_report.Report.write_rows ~file:"BENCH_observer.json" ~bench:"observer"
    ~meta:
      [
        ("replicas", "4");
        ("reads_per_observer", string_of_int reads_per_observer);
        ("readers_per_observer", string_of_int readers_per_observer);
        ( "note",
          "throughput_tx_s is verified reads per second of virtual time; the \
           write tier is idle during the read phase" );
      ]
    (List.concat_map
       (Harness.rows_of_result ~bench:"observer")
       (results @ [ status ]))
