(* Instrumented smoke run (the @bench-smoke alias): a tiny SmallBank load
   with metrics and tracing on, asserting that the snapshot round-trips
   through the parser and that the registry's cross-component invariants
   hold. Fails loudly — the alias is a build-time guard against the
   instrumentation drifting from the protocol. *)

module Obs = Iaccf_obs.Obs

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench-smoke: " ^ s); exit 1) fmt

let find pairs key =
  match List.assoc_opt key pairs with
  | Some v -> v
  | None -> fail "metrics snapshot is missing key %s" key

let int_of pairs key =
  let v = find pairs key in
  try int_of_string v with _ -> fail "key %s is not an integer: %s" key v

let () =
  let obs = Obs.create ~metrics:true ~tracing:true () in
  let result =
    Harness.run_iaccf ~label:"smoke" ~n:4 ~accounts:10 ~total:40 ~concurrency:8
      ~obs ()
  in
  if result.Harness.rr_txs < 40 then
    fail "only %d/40 transactions completed" result.Harness.rr_txs;

  (* The snapshot must parse back into exactly the pairs it rendered. *)
  let pairs = Obs.snapshot obs in
  let reparsed = Obs.parse_snapshot (Obs.snapshot_string obs) in
  if pairs <> reparsed then fail "snapshot does not round-trip through parse";
  if pairs = [] then fail "snapshot is empty";

  (* Per-replica conservation: nothing commits that was never received. *)
  for id = 0 to 3 do
    let received = int_of pairs (Printf.sprintf "replica.%d.requests_received" id) in
    let committed = int_of pairs (Printf.sprintf "replica.%d.requests_committed" id) in
    if committed > received then
      fail "replica %d committed %d > received %d" id committed received;
    if committed = 0 then fail "replica %d committed nothing" id
  done;

  (* Network conservation: every drop was a send. *)
  let sent = int_of pairs "net.sent" in
  let drops =
    int_of pairs "net.dropped.cut" + int_of pairs "net.dropped.prob"
    + int_of pairs "net.dropped.unregistered"
  in
  if drops + int_of pairs "net.delivered" > sent then
    fail "delivered + dropped (%d) exceeds sent (%d)" drops sent;

  (* Clients cannot complete more than they submitted. *)
  if int_of pairs "client.completed" > int_of pairs "client.submitted" then
    fail "client.completed exceeds client.submitted";

  (* The per-phase histograms observed every batch exactly once. *)
  let batches =
    List.fold_left
      (fun acc id ->
        acc + int_of pairs (Printf.sprintf "replica.%d.batches_committed" id))
      0 [ 0; 1; 2; 3 ]
  in
  let observed = int_of pairs "lat.preprepare_to_commit_ms.count" in
  if observed = 0 then fail "no per-phase latency was observed";
  if observed > batches then
    fail "phase histogram has %d observations for %d committed batches"
      observed batches;

  (* Tracing produced balanced spans. *)
  if Obs.event_count obs = 0 then fail "tracing produced no events";
  Iaccf_report.Report.write_rows ~file:"BENCH_smoke.json" ~bench:"smoke"
    ~meta:[ ("trace_events", string_of_int (Obs.event_count obs)) ]
    (Harness.rows_of_result ~bench:"smoke" result);
  Printf.printf
    "bench-smoke ok: %d tx, %d metric keys, %d trace events, pp->commit p50 %.2f ms\n"
    result.Harness.rr_txs (List.length pairs) (Obs.event_count obs)
    (Obs.Histogram.percentile (Obs.histogram obs "lat.preprepare_to_commit_ms") 0.5)
