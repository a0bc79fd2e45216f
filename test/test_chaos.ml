(* Chaos harness driver: runs scenario x seed matrices through the
   accountability oracle and fails loudly with a reproducer line.

     ./test_chaos.exe smoke    one scenario per suite x 3 seeds (@chaos-smoke,
                               part of the default dune runtest)
     ./test_chaos.exe full     the whole catalog x 5 seeds (@chaos)

   Every cell is deterministic in its seed; a FAIL line names the exact
   `iaccf chaos` invocation that replays it. *)

open Iaccf_chaos

let run ~label ~scenarios ~seeds =
  Printf.printf "chaos %s: %d scenarios x %d seeds\n%!" label
    (List.length scenarios) (List.length seeds)
  ;
  let results = Runner.sweep ~scenarios ~seeds () in
  List.iter (fun r -> print_endline (Runner.describe r)) results;
  let failed = Runner.failures results in
  Printf.printf "chaos %s: %d/%d cells passed\n%!" label
    (List.length results - List.length failed)
    (List.length results);
  if failed <> [] then begin
    prerr_endline "chaos: oracle violations:";
    List.iter (fun r -> prerr_endline ("  " ^ Runner.reproducer r)) failed;
    exit 1
  end

(* The smoke matrix must also be *deterministic*: the same cell run twice
   must produce the same oracle verdict and byte-identical metrics
   snapshots (the failure-reproducer contract depends on it). The
   primary-crash cell is checked too, so the view-change path (new-view
   and view-change signature checks included) stays under the assertion.

   This cell is also the regression guard for the socket-transport seam
   (lib/net): the simulator network now carries a gateway hook for
   out-of-process delivery, and its branch must be dead in pure-sim runs
   (it only triggers when a gateway is installed AND the destination is
   unregistered, and it sits before any RNG draw). Any accidental
   behavior change from that refactor shows up here as a verdict or
   metrics diff against the pre-refactor bytes. *)
let determinism_check () =
  let cells =
    List.hd Scenarios.smoke
    :: (match Scenarios.find "primary-crash" with Some sc -> [ sc ] | None -> [])
  in
  List.iter
    (fun sc ->
      let a = Runner.run_one sc ~seed:1 and b = Runner.run_one sc ~seed:1 in
      if
        a.Runner.r_verdict.Oracle.vd_result <> b.Runner.r_verdict.Oracle.vd_result
      then begin
        Printf.eprintf "chaos: same seed produced different verdicts (%s)\n"
          sc.Scenario.sc_name;
        exit 1
      end;
      if a.Runner.r_metrics <> b.Runner.r_metrics then begin
        Printf.eprintf
          "chaos: same seed produced different metrics snapshots (%s)\n"
          sc.Scenario.sc_name;
        exit 1
      end)
    cells

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "smoke" with
  | "smoke" ->
      run ~label:"smoke" ~scenarios:Scenarios.smoke ~seeds:[ 1; 2; 3 ];
      determinism_check ()
  | "full" ->
      run ~label:"full" ~scenarios:Scenarios.all ~seeds:[ 1; 2; 3; 4; 5 ]
  | other ->
      Printf.eprintf "usage: %s [smoke|full] (got %S)\n" Sys.argv.(0) other;
      exit 2
