(* Pieces every workload shares: options, the result record, resident
   memory, scratch directories, SmallBank set-up through the ledger, the
   timed loop, and the package and audit after it. *)

open Iaccf_core
module Obs = Iaccf_obs.Obs
module Smallbank = Iaccf_app.Smallbank
module Package = Iaccf_storage.Package

type opts = { seed : int; seconds : float; trace : bool; out_dir : string }

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* One run of a workload: its result, and when traced, the per-layer
   values and the timed window's wall time (for the tracing overhead). *)
type measured = {
  result : result;
  window_s : float;
  committed : int;
  layers : (string * float) list;
}

let wall () = Unix.gettimeofday ()

(* Peak resident set of this process, in MiB, from /proc/self/status
   (VmHWM). 0 where the file is unreadable. *)
let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ()

(* Directory helpers. The library has its own, but keeps them private. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh scratch directory under the run's output directory. *)
let scratch_dir opts name =
  let dir =
    Filename.concat opts.out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  dir

(* Run the set-up [k] times and keep the last one: [setup_s] is the
   median, so one slow start on a shared host does not move it. Each
   set-up gets a host-speed reference (sampled before and after, and
   ticked by the set-up's own loops) and its time is normalised. *)
let repeated_setup ~k setup =
  let rec go i acc =
    let speed = Speed.create () in
    Speed.sample_for speed 0.01;
    let before = Speed.overhead speed in
    let t0 = wall () in
    let v = setup ~last:(i = k) ~speed in
    let dt = wall () -. t0 -. (Speed.overhead speed -. before) in
    Speed.sample_for speed 0.01;
    let dt = Speed.duration speed dt in
    if i = k then (v, Stats.median (dt :: acc)) else go (i + 1) (dt :: acc)
  in
  go 1 []

(* Create SmallBank accounts through the ledger (so an audit can replay
   from genesis), [per_client] requests in flight on each client. *)
let create_accounts ~run_until ~clients ~per_client ~accounts =
  let ops = Array.of_list (Smallbank.setup_ops ~accounts ~initial_balance:10_000) in
  let next = ref 0 and done_ = ref 0 in
  let rec submit c =
    if !next < Array.length ops then begin
      let op = ops.(!next) in
      incr next;
      Client.submit c ~proc:op.Smallbank.op_proc ~args:op.Smallbank.op_args
        ~on_complete:(fun _ ->
          incr done_;
          submit c)
        ()
    end
  in
  Array.iter (fun c -> for _ = 1 to per_client do submit c done) clients;
  if not (run_until (fun () -> !done_ >= Array.length ops)) then
    failwith
      (Printf.sprintf "account creation stalled at %d/%d" !done_ (Array.length ops))

type window = {
  w_attempted : int;
  w_committed : int;
  w_wall_s : float;  (* normalised, reference slices left out *)
  w_speed : float;  (* host speed over the window, see Speed *)
  w_latencies : float list;  (* virtual ms on the simulator, wall ms on sockets *)
  w_done_at : float list;  (* completion times, on [now]'s clock *)
  w_receipts : Receipt.t list;
}

(* The timed closed loop: [total] SmallBank requests drawn from [rng],
   [per_client] in flight on each client, each submit a span named
   [span]. [drive pred] runs the event loop until [pred] holds and says
   whether it did; the host-speed reference ticks inside it. *)
let closed_loop ~spans ~span ~clients ~per_client ~total ~rng ~accounts ~now ~drive =
  (* Timed phases start from a compacted heap, so none pays for the
     garbage of the phase before it. *)
  Gc.compact ();
  let speed = Speed.create () in
  let t0 = wall () in
  let attempted = ref 0 and committed = ref 0 and outstanding = ref 0 in
  let latencies = ref [] and done_at = ref [] and receipts = ref [] in
  let rec submit c =
    if !attempted < total then begin
      let op = Smallbank.random_op rng ~accounts in
      incr attempted;
      incr outstanding;
      Spans.wrap spans span (fun () ->
          Client.submit c ~proc:op.Smallbank.op_proc ~args:op.Smallbank.op_args
            ~on_complete:(fun oc ->
              decr outstanding;
              incr committed;
              latencies := oc.Client.oc_latency_ms :: !latencies;
              done_at := now () :: !done_at;
              receipts := oc.Client.oc_receipt :: !receipts;
              submit c)
            ())
    end
  in
  Array.iter (fun c -> for _ = 1 to per_client do submit c done) clients;
  let finished =
    drive (fun () ->
        Speed.tick speed;
        !outstanding = 0 && !attempted >= total)
  in
  if not finished then Printf.printf "%d requests still outstanding\n%!" !outstanding;
  {
    w_attempted = !attempted;
    w_committed = !committed;
    w_wall_s = Speed.duration speed (wall () -. t0 -. Speed.overhead speed);
    w_speed = Speed.speed speed;
    w_latencies = !latencies;
    w_done_at = !done_at;
    w_receipts = List.rev !receipts;
  }

(* Highest committed seqno among [replicas]. *)
let committed_prefix replicas =
  List.fold_left (fun acc r -> max acc (Replica.last_committed r)) 0 replicas

(* Run the cluster until the restarted [replica] reaches [target],
   sampling its committed seqno after every event so the time is exact;
   the catch-up in virtual ms from [restart], or [None] by [timeout_ms]. *)
let run_catchup cluster ~replica ~restart ~target ~timeout_ms =
  let sched = Cluster.sched cluster in
  let samples = ref [] in
  ignore
    (Cluster.run_until cluster ~timeout_ms (fun () ->
         let lc = Replica.last_committed replica in
         (match !samples with
         | (_, last) :: _ when last = lc -> ()
         | _ -> samples := (Iaccf_sim.Sched.now sched, lc) :: !samples);
         lc >= target));
  Stats.catchup ~restart ~target !samples

(* Sum of every counter whose name starts with [prefix]. *)
let counter_prefix_sum obs prefix =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= String.length prefix
         && String.sub k 0 (String.length prefix) = prefix
      then acc + (try int_of_string v with Failure _ -> 0)
      else acc)
    0 (Obs.snapshot obs)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Print the failed checks; true when every check held. *)
let report_checks checks =
  List.iter (fun (name, ok) -> if not ok then Printf.printf "CHECK FAILED: %s\n%!" name) checks;
  List.for_all snd checks

let ledger_txs ledger =
  let n = ref 0 in
  Iaccf_ledger.Ledger.iteri
    (fun _ e -> match e with Iaccf_ledger.Entry.Tx _ -> incr n | _ -> ())
    ledger;
  !n

(* Receipt.verify on each receipt against the genesis configuration:
   the number that failed, and normalised microseconds per call.
   Reference slices come from the timer; a slice that lands inside a
   call is taken back out of that call's time, and each call is
   normalised by the host's speed around it (Speed.local). *)
let verify_receipts ~spans ~genesis receipts =
  Gc.compact ();
  let config = genesis.Iaccf_types.Genesis.initial_config in
  let service = Iaccf_types.Genesis.hash genesis in
  let speed = Speed.create () in
  Speed.sample speed;
  let bad = ref 0 in
  let timed =
    Speed.during speed (fun () ->
        List.map
          (fun r ->
            let t0 = wall () and o0 = Speed.overhead speed in
            let ok =
              Spans.wrap spans "receipt.verify" (fun () ->
                  Receipt.verify ~config ~service r = Ok ())
            in
            if not ok then incr bad;
            ((wall () -. t0 -. (Speed.overhead speed -. o0)) *. 1e6, Speed.slices speed))
          receipts)
  in
  Speed.sample speed;
  (!bad, Speed.local speed timed)

(* Normalised wall seconds of [f ()], a phase that is one long call
   into the system: reference slices come from a timer (Speed.during). *)
let timed_call f =
  Gc.compact ();
  let speed = Speed.create () in
  Speed.sample speed;
  let before = Speed.overhead speed in
  let t0 = wall () in
  let v = Speed.during speed f in
  let dt = wall () -. t0 -. (Speed.overhead speed -. before) in
  (v, Speed.duration speed dt)

(* A ledger through a package file to a fresh auditor: written, read
   back and audited, each step a span. The ledger read back, the
   verdict, and the normalised wall seconds of the read and the audit. *)
let package_audit ~spans ~file ~auditor ~responder ?checkpoint ledger =
  Spans.wrap spans "package.write" (fun () ->
      Package.write_file file (Package.of_ledger ?checkpoint ledger));
  let (ledger, verdict), audit_s =
    timed_call (fun () ->
        let pkg = Spans.wrap spans "package.read" (fun () -> Package.read_file file) in
        let ledger = Package.to_ledger pkg in
        ( ledger,
          Spans.wrap spans "audit.audit" (fun () ->
              Audit.audit auditor ~receipts:[] ~ledger ?checkpoint:pkg.Package.pkg_checkpoint
                ~responder ()) ))
  in
  (ledger, verdict, audit_s)

(* The traced run's spans as a Chrome trace in the output directory. *)
let write_trace opts spans ~workload =
  Spans.write_chrome spans
    (Filename.concat opts.out_dir (Printf.sprintf "trace-%s-%d.json" workload opts.seed))

(* The end-to-end metrics, in the order BENCHMARK.json lists them.
   Wall-clock inputs arrive normalised (see Speed); the human-readable
   line also gives the window's raw wall time and the host speed that
   normalised it. *)
let end_to_end ~name ~wall_s ~speed ~committed ~attempted ~failed ~latencies ~unavailable_ms
    ~catchup_ms ~audit_tx_s ~verify_us ~setup_s ~rss_mib =
  let tail = Stats.tail latencies and vtail = Stats.tail verify_us in
  Printf.printf
    "%s: %d of %d committed in %.2f s normalised (%.2f s raw at host speed %.3f); p99_ms is \
     p%g of %d samples\n%!"
    name committed attempted wall_s (wall_s /. speed) speed (100.0 *. tail.Stats.t_p)
    tail.Stats.t_count;
  [
    metric "tx_s" "1/s" (Stats.ratio (float_of_int committed) wall_s);
    metric "p50_ms" "ms" (Stats.median latencies);
    metric "p99_ms" "ms" tail.Stats.t_value;
    metric "committed_ratio" "ratio" (Stats.committed_ratio ~attempted ~failed);
    metric "unavailable_ms" "ms" unavailable_ms;
    metric "catchup_ms" "ms" catchup_ms;
    metric "audit_tx_s" "1/s" audit_tx_s;
    metric "receipt_verify_p50_us" "us" (Stats.median verify_us);
    metric "receipt_verify_p99_us" "us" vtail.Stats.t_value;
    metric "setup_s" "s" setup_s;
    metric "rss_mib" "MiB" rss_mib;
  ]

let print_result r =
  List.iter
    (fun m -> Printf.printf "  %-28s %16.6f %s\n" m.m_name m.m_value m.m_unit)
    r.metrics;
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics)
