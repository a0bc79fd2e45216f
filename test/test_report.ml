(* The bench-report layer: the writer round-trips through the loader,
   files without rows are refused, and the comparison gate catches every
   kind of regression (exact drift, ms over tolerance, vanished metrics)
   while ignoring what it must (wall-clock noise, new metrics). *)

module Report = Iaccf_report.Report

let check = Alcotest.check

let row = Report.row

let with_temp_file f =
  let file = Filename.temp_file "iaccf-report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () -> f file

(* --------------------------------------------------------------- *)
(* Loading                                                          *)

let test_rows_roundtrip () =
  let bench = "rt" in
  let rows =
    [
      row ~bench ~series:"a" ~metric:"txs" ~gate:Report.Exact 60.0;
      row ~bench ~series:"a" ~metric:"p50_ms" ~gate:Report.Ms 1.25;
      row ~bench ~series:"b \"quoted\"" ~metric:"wall_s" ~gate:Report.Info 0.5;
    ]
  in
  with_temp_file @@ fun file ->
  Report.write_rows ~file ~bench ~meta:[ ("note", "round trip") ] rows;
  match Report.load_file file with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
      check Alcotest.int "row count" (List.length rows) (List.length loaded);
      List.iter2
        (fun (a : Report.row) (b : Report.row) ->
          check Alcotest.string "series" a.Report.r_series b.Report.r_series;
          check Alcotest.string "metric" a.Report.r_metric b.Report.r_metric;
          check (Alcotest.float 1e-9) "value" a.Report.r_value b.Report.r_value;
          check Alcotest.bool "gate" true (a.Report.r_gate = b.Report.r_gate))
        rows loaded

let test_results_only_refused () =
  (* The retired "results" schema: a file carrying only that array is an
     error naming the file, not a silently empty trajectory. *)
  let json =
    {|{
  "bench": "legacy",
  "results": [
    {"label":"full","txs":60,"wall_s":0.14,"sigs_made":16,"sigs_verified":288}
  ]
}|}
  in
  with_temp_file @@ fun file ->
  let oc = open_out file in
  output_string oc json;
  close_out oc;
  match Report.load_file file with
  | Ok _ -> Alcotest.fail "loaded a results-only file"
  | Error e ->
      check Alcotest.bool "names the file" true
        (String.length e >= String.length file
        && String.sub e 0 (String.length file) = file)

let test_check_file_rejects_garbage () =
  with_temp_file @@ fun file ->
  let oc = open_out file in
  output_string oc "{\"bench\": \"x\", \"rows\": [";
  close_out oc;
  (match Report.check_file file with
  | Ok _ -> Alcotest.fail "accepted truncated JSON"
  | Error _ -> ());
  let oc = open_out file in
  output_string oc "{\"bench\": \"x\", \"rows\": []}";
  close_out oc;
  (match Report.check_file file with
  | Ok _ -> Alcotest.fail "accepted an empty rows file"
  | Error _ -> ());
  let oc = open_out file in
  output_string oc "{\"bench\": \"x\"}";
  close_out oc;
  match Report.check_file file with
  | Ok _ -> Alcotest.fail "accepted a file without rows"
  | Error _ -> ()

(* --------------------------------------------------------------- *)
(* The gate                                                         *)

let base_rows =
  [
    row ~bench:"b" ~series:"s" ~metric:"txs" ~gate:Report.Exact 60.0;
    row ~bench:"b" ~series:"s" ~metric:"p50_ms" ~gate:Report.Ms 1.0;
    row ~bench:"b" ~series:"s" ~metric:"wall_s" ~gate:Report.Info 0.5;
  ]

let verdict_of comparisons metric =
  (List.find
     (fun (c : Report.comparison) -> c.Report.c_row.Report.r_metric = metric)
     comparisons)
    .Report.c_verdict

let is_regression = function Report.Regression _ -> true | _ -> false

let test_gate_passes_identical () =
  let cs = Report.compare_rows ~baseline:base_rows ~current:base_rows () in
  check Alcotest.int "no regressions" 0 (List.length (Report.regressions cs))

let test_gate_exact_change_fails () =
  let current =
    [
      row ~bench:"b" ~series:"s" ~metric:"txs" ~gate:Report.Exact 59.0;
      row ~bench:"b" ~series:"s" ~metric:"p50_ms" ~gate:Report.Ms 1.0;
      row ~bench:"b" ~series:"s" ~metric:"wall_s" ~gate:Report.Info 0.5;
    ]
  in
  let cs = Report.compare_rows ~baseline:base_rows ~current () in
  check Alcotest.bool "exact drift regresses" true
    (is_regression (verdict_of cs "txs"));
  check Alcotest.int "only the one" 1 (List.length (Report.regressions cs))

let test_gate_ms_tolerance () =
  let with_p50 v =
    [
      row ~bench:"b" ~series:"s" ~metric:"txs" ~gate:Report.Exact 60.0;
      row ~bench:"b" ~series:"s" ~metric:"p50_ms" ~gate:Report.Ms v;
      row ~bench:"b" ~series:"s" ~metric:"wall_s" ~gate:Report.Info 0.5;
    ]
  in
  (* Within tolerance (10% + 0.05 ms slack on a 1.0 ms baseline). *)
  let cs = Report.compare_rows ~baseline:base_rows ~current:(with_p50 1.08) () in
  check Alcotest.int "within tolerance passes" 0
    (List.length (Report.regressions cs));
  (* Faster is never a regression. *)
  let cs = Report.compare_rows ~baseline:base_rows ~current:(with_p50 0.2) () in
  check Alcotest.int "faster passes" 0 (List.length (Report.regressions cs));
  (* Past tolerance fails. *)
  let cs = Report.compare_rows ~baseline:base_rows ~current:(with_p50 1.30) () in
  check Alcotest.bool "slower than tolerance regresses" true
    (is_regression (verdict_of cs "p50_ms"))

let test_gate_info_never_fails () =
  let current =
    [
      row ~bench:"b" ~series:"s" ~metric:"txs" ~gate:Report.Exact 60.0;
      row ~bench:"b" ~series:"s" ~metric:"p50_ms" ~gate:Report.Ms 1.0;
      row ~bench:"b" ~series:"s" ~metric:"wall_s" ~gate:Report.Info 50.0;
    ]
  in
  let cs = Report.compare_rows ~baseline:base_rows ~current () in
  check Alcotest.int "wall-clock noise ignored" 0
    (List.length (Report.regressions cs))

let test_gate_missing_and_new () =
  (* A gated metric that vanished is a regression; a brand-new metric and a
     vanished Info metric are not. *)
  let current =
    [
      row ~bench:"b" ~series:"s" ~metric:"txs" ~gate:Report.Exact 60.0;
      row ~bench:"b" ~series:"s" ~metric:"fresh" ~gate:Report.Exact 1.0;
    ]
  in
  let cs = Report.compare_rows ~baseline:base_rows ~current () in
  check Alcotest.bool "vanished ms metric is a regression" true
    (verdict_of cs "p50_ms" = Report.Missing);
  check Alcotest.bool "new metric is informational" true
    (verdict_of cs "fresh" = Report.New);
  check Alcotest.int "exactly one regression" 1
    (List.length (Report.regressions cs));
  check Alcotest.bool "vanished info metric ignored" true
    (List.for_all
       (fun (c : Report.comparison) ->
         c.Report.c_row.Report.r_metric <> "wall_s"
         || c.Report.c_verdict <> Report.Missing)
       cs)

let test_render_smoke () =
  let cs = Report.compare_rows ~baseline:base_rows ~current:base_rows () in
  let t = Report.render_trend base_rows and c = Report.render_comparison cs in
  check Alcotest.bool "trend mentions the metric" true
    (String.length t > 0
    && String.length c > 0
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    contains t "p50_ms" && contains c "ok")

let () =
  Alcotest.run "iaccf_report"
    [
      ( "loading",
        [
          Alcotest.test_case "rows schema round-trips" `Quick
            test_rows_roundtrip;
          Alcotest.test_case "results-only file is refused" `Quick
            test_results_only_refused;
          Alcotest.test_case "schema check rejects garbage" `Quick
            test_check_file_rejects_garbage;
        ] );
      ( "gate",
        [
          Alcotest.test_case "identical passes" `Quick test_gate_passes_identical;
          Alcotest.test_case "exact drift fails" `Quick
            test_gate_exact_change_fails;
          Alcotest.test_case "ms tolerance" `Quick test_gate_ms_tolerance;
          Alcotest.test_case "wall clock never gates" `Quick
            test_gate_info_never_fails;
          Alcotest.test_case "missing vs new" `Quick test_gate_missing_and_new;
          Alcotest.test_case "rendering" `Quick test_render_smoke;
        ] );
    ]
