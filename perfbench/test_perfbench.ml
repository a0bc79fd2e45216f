(* The benchmark's own arithmetic on hand-built inputs: the percentile
   reporting rule, failure counting, unavailability and catch-up from a
   timeline, zero denominators, and the span recorder. *)

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "median of 1..100" 50.0 (Stats.median xs);
  Alcotest.check close "p90 of 1..100" 90.0 (Stats.tail xs).Stats.t_value;
  Alcotest.check close "p99 of 1..1000" 990.0
    (Stats.tail (List.init 1000 (fun i -> float_of_int (i + 1)))).Stats.t_value;
  Alcotest.check close "empty" 0.0 (Stats.median [])

let test_tail_rule () =
  let n k = List.init k (fun i -> float_of_int i) in
  (* 1000 samples: 10 beyond p99, so p99 qualifies. *)
  let t = Stats.tail (n 1000) in
  Alcotest.check close "p99 at 1000" 0.99 t.Stats.t_p;
  Alcotest.(check int) "count" 1000 t.Stats.t_count;
  (* 999 samples: rank ceil(989.01) = 990, only 9 beyond p99. *)
  Alcotest.check close "p95 at 999" 0.95 (Stats.tail (n 999)).Stats.t_p;
  Alcotest.check close "p90 at 100" 0.9 (Stats.tail (n 100)).Stats.t_p;
  Alcotest.check close "p999 at 10000" 0.999 (Stats.tail (n 10_000)).Stats.t_p;
  (* Too few for any rung: the median, with its count. *)
  let t = Stats.tail (n 5) in
  Alcotest.check close "median below 20" 0.5 t.Stats.t_p;
  Alcotest.(check int) "count below 20" 5 t.Stats.t_count

let test_failed () =
  Alcotest.(check int) "uncommitted" 3 (Stats.failed ~attempted:10 ~committed:7 ~check_ok:true);
  Alcotest.(check int) "check failed: all" 10
    (Stats.failed ~attempted:10 ~committed:10 ~check_ok:false);
  Alcotest.check close "committed ratio" 0.7 (Stats.committed_ratio ~attempted:10 ~failed:3);
  Alcotest.check close "all failed" 0.0 (Stats.committed_ratio ~attempted:10 ~failed:10);
  Alcotest.check close "no attempts" 0.0 (Stats.committed_ratio ~attempted:0 ~failed:0)

let test_zero_denominators () =
  Alcotest.check close "x/0" 0.0 (Stats.ratio 5.0 0.0);
  Alcotest.check close "0/0" 0.0 (Stats.ratio_i 0 0);
  Alcotest.check close "plain" 2.5 (Stats.ratio_i 5 2);
  Alcotest.check close "median of nothing" 0.0 (Stats.median [])

let test_unavailable () =
  (* Receipts every 10 ms, a stop at 100, silence until 460. *)
  let timeline = [ 10.; 20.; 90.; 95.; 460.; 470.; 480. ] in
  Alcotest.check close "gap after the stop" 360.0
    (Stats.longest_gap ~start:100.0 ~stop:480.0 timeline);
  Alcotest.check close "whole-window gap" 365.0
    (Stats.longest_gap ~start:0.0 ~stop:480.0 timeline);
  Alcotest.check close "no receipts at all" 50.0 (Stats.longest_gap ~start:0.0 ~stop:50.0 []);
  (* The new view lands at 455: service resumes at the receipt at 460,
     360 ms after the stop at 100. *)
  Alcotest.(check (option close)) "first receipt in the new view" (Some 460.0)
    (Stats.first_at_or_after ~from:455.0 (List.rev timeline));
  Alcotest.(check (option close)) "none after" None (Stats.first_at_or_after ~from:481.0 timeline)

let test_catchup () =
  (* (time, last_committed) of the restarted replica; restart at 600
     with the fleet at seqno 40. *)
  let samples = [ (590., 10); (600., 10); (610., 12); (650., 39); (670., 40); (700., 44) ] in
  Alcotest.(check (option close)) "reaches 40 at 670" (Some 70.0)
    (Stats.catchup ~restart:600.0 ~target:40 samples);
  Alcotest.(check (option close)) "order does not matter" (Some 70.0)
    (Stats.catchup ~restart:600.0 ~target:40 (List.rev samples));
  Alcotest.(check (option close)) "never" None (Stats.catchup ~restart:600.0 ~target:50 samples);
  Alcotest.(check (option close)) "already there" (Some 0.0)
    (Stats.catchup ~restart:600.0 ~target:10 samples);
  Alcotest.(check (option close)) "before the restart does not count" None
    (Stats.catchup ~restart:600.0 ~target:10 [ (590., 10) ])

let test_spans () =
  let off = Spans.create ~enabled:false () in
  Alcotest.(check int) "disabled runs f" 3 (Spans.wrap off "x" (fun () -> 3));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off));
  let t = Spans.create ~enabled:true () in
  Spans.wrap t "outer" (fun () -> Spans.wrap t "inner" ignore; Spans.wrap t "inner" ignore);
  let spans = Spans.spans t in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let outer = List.find (fun s -> s.Spans.s_name = "outer") spans in
  Alcotest.(check int) "outer is top level" (-1) outer.Spans.s_parent;
  List.iter
    (fun s ->
      if s.Spans.s_name = "inner" then
        Alcotest.(check int) "inner's parent" outer.Spans.s_id s.Spans.s_parent)
    spans;
  Alcotest.(check int) "calls" 2 (Spans.calls t "inner");
  Alcotest.(check bool) "outer covers inner" true
    (Spans.total_us t "outer" >= Spans.total_us t "inner")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "failed" `Quick test_failed;
          Alcotest.test_case "zero denominators" `Quick test_zero_denominators;
          Alcotest.test_case "unavailable" `Quick test_unavailable;
          Alcotest.test_case "catch-up" `Quick test_catchup;
        ] );
      ("spans", [ Alcotest.test_case "nesting" `Quick test_spans ]);
    ]
