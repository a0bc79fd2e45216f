(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (closed-audit, open-crash) with inputs
   drawn from the seed, prints every metric by name with its unit, and
   ends with one JSON line: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 the run is repeated traced and the metrics are the
   per-layer ones. The exit code is non-zero when an output check fails.

   The executable doubles as the socket leg's serve process: invoked as
   `main.exe __serve MANIFEST ID PACKAGE` it becomes one replica. *)

module C = Common

let end_to_end =
  [
    ("tx_s", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("committed_ratio", "ratio");
    ("unavailable_ms", "ms");
    ("catchup_ms", "ms");
    ("audit_tx_s", "1/s");
    ("receipt_verify_p50_us", "us");
    ("receipt_verify_p99_us", "us");
    ("setup_s", "s");
    ("rss_mib", "MiB");
  ]

let workloads =
  [
    ("closed-audit", Closed_audit.measure);
    ("open-crash", Open_crash.measure);
  ]

(* --trace 0: one untraced run. --trace 1: an untraced run as the
   overhead baseline, then the traced run whose per-layer values are
   reported; end-to-end figures never come from a traced run. *)
let run measure opts =
  let plain = measure opts ~traced:false in
  if not opts.C.trace then plain.C.result
  else begin
    let traced = measure opts ~traced:true in
    let per_tx (m : C.measured) = Stats.ratio m.C.window_s (float_of_int m.C.committed) in
    let overhead = Stats.ratio (per_tx traced) (per_tx plain) in
    let correct = plain.C.result.C.correct && traced.C.result.C.correct in
    {
      traced.C.result with
      C.correct;
      failed = (if correct then traced.C.result.C.failed else traced.C.result.C.attempted);
      metrics = Layers.to_metrics (("trace.overhead_ratio", overhead) :: traced.C.layers);
    }
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload closed-audit|open-crash --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

(* The metrics a run must print, in order, with their units. *)
let expected ~trace = if trace then Layers.all else end_to_end

let () =
  if Array.length Sys.argv >= 5 && Sys.argv.(1) = "__serve" then
    exit (Socket_leg.serve_main ~manifest:Sys.argv.(2) ~id:(int_of_string Sys.argv.(3))
            ~package:Sys.argv.(4));
  let args = parse Sys.argv in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let name = get "workload" in
  let measure = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let opts =
    {
      C.seed = int_of_string (get "seed");
      seconds = float_of_string (get "seconds");
      trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
      out_dir = Filename.concat "perfbench" "out";
    }
  in
  C.mkdir_p opts.C.out_dir;
  let result =
    try run measure opts
    with e ->
      Printf.printf "%s: %s\n%!" name (Printexc.to_string e);
      exit 1
  in
  let names = List.map (fun m -> (m.C.m_name, m.C.m_unit)) result.C.metrics in
  if names <> expected ~trace:opts.C.trace then begin
    Printf.printf "%s: printed metrics do not match the declared list\n%!" name;
    exit 1
  end;
  C.print_result result;
  if not result.C.correct then exit 1
