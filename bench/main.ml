(* Benchmark entry point: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's per-experiment index), plus a
   Bechamel micro-benchmark suite for the primitives.

   Usage:  main.exe [table1|fig4|table2|fig5|fig6|fig7|table3|receipts|
                     governance|audit|storage|micro|quick|all]                 *)

open Bechamel
module Sha256 = Iaccf_crypto.Sha256
module Schnorr = Iaccf_crypto.Schnorr
module Hmac = Iaccf_crypto.Hmac
module Tree = Iaccf_merkle.Tree
module State = Iaccf_kv.State
module D = Iaccf_crypto.Digest32

(* --- Bechamel micro suite: the primitive on each experiment's critical
   path, one Test.make per table/figure. --- *)

let micro_tests () =
  let sk, pk = Schnorr.keypair_of_seed "bench" in
  let digest = Sha256.digest "payload" in
  let signature = Schnorr.sign sk digest in
  let tree =
    let t = Tree.create () in
    for i = 0 to 299 do
      Tree.append t (D.of_string (string_of_int i))
    done;
    t
  in
  let root = Tree.root tree in
  let path = Tree.path tree 150 in
  let map =
    List.fold_left
      (fun m i -> State.add (Printf.sprintf "k%d" i) "v" m)
      State.empty
      (List.init 10_000 Fun.id)
  in
  [
    (* Table 1 dominates on serialization -> hashing. *)
    Test.make ~name:"t1:sha256-256B"
      (Staged.stage (fun () -> ignore (Sha256.digest (String.make 256 'x'))));
    (* Fig. 4/5 and Table 3 are dominated by signing/verification. *)
    Test.make ~name:"fig4:schnorr-sign" (Staged.stage (fun () -> ignore (Schnorr.sign sk digest)));
    Test.make ~name:"fig5:schnorr-verify"
      (Staged.stage (fun () -> ignore (Schnorr.verify pk digest ~signature)));
    (* A batch's worth of client signatures, one untabled key each. *)
    (let jobs =
       List.init 8 (fun i ->
           let sk, pk = Schnorr.keypair_of_seed (Printf.sprintf "pv%d" i) in
           let d = Sha256.digest (string_of_int i) in
           (pk, d, Schnorr.sign sk d))
     in
     Test.make ~name:"t3:verify-batch8"
       (Staged.stage (fun () ->
            ignore
              (List.for_all (fun (pk, d, signature) -> Schnorr.verify pk d ~signature) jobs))));
    Test.make ~name:"t3:hmac" (Staged.stage (fun () -> ignore (Hmac.mac ~key:"k" "payload")));
    (* §6.3 receipts: Merkle path verification in G (batch 300). *)
    Test.make ~name:"r1:merkle-path-verify"
      (Staged.stage (fun () ->
           ignore
             (Tree.verify_path
                ~leaf:(D.of_string "150")
                ~index:150 ~size:300 ~path ~root)));
    (* Fig. 6/7: key-value store access at 10k keys. *)
    Test.make ~name:"fig7:kv-find-10k"
      (Staged.stage (fun () -> ignore (State.find_opt "k5000" map)));
    Test.make ~name:"fig6:kv-add-10k"
      (Staged.stage (fun () -> ignore (State.add "fresh" "v" map)));
  ]

let run_micro () =
  Harness.print_header "Micro-benchmarks (Bechamel)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let tests = Test.make_grouped ~name:"iaccf" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] -> Printf.printf "%-32s %12.2f ns/op\n%!" name t
      | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
    results

let quick () =
  (* A fast smoke pass over every experiment with reduced sizes. *)
  Experiments.table1 ();
  Experiments.fig4 ~total:60 ();
  Experiments.table2 ();
  Experiments.fig5 ~total:40 ();
  Experiments.fig6 ~total:40 ();
  Experiments.fig7 ~total:40 ();
  Experiments.table3 ~total:60 ();
  Experiments.receipts_bench ();
  Experiments.governance_bench ();
  Experiments.audit_bench ();
  Experiments.storage_bench ~appends:500 ()

let all () =
  Experiments.table1 ();
  Experiments.fig4 ();
  Experiments.table2 ();
  Experiments.fig5 ();
  Experiments.fig6 ();
  Experiments.fig7 ();
  Experiments.table3 ();
  Experiments.receipts_bench ();
  Experiments.governance_bench ();
  Experiments.audit_bench ();
  Experiments.storage_bench ();
  run_micro ()

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match cmd with
  | "table1" -> Experiments.table1 ()
  | "fig4" -> Experiments.fig4 ()
  | "table2" -> Experiments.table2 ()
  | "fig5" -> Experiments.fig5 ()
  | "fig6" -> Experiments.fig6 ()
  | "fig7" -> Experiments.fig7 ()
  | "table3" -> Experiments.table3 ()
  | "receipts" -> Experiments.receipts_bench ()
  | "governance" -> Experiments.governance_bench ()
  | "audit" -> Experiments.audit_bench ()
  | "storage" -> Experiments.storage_bench ()
  | "micro" -> run_micro ()
  | "quick" -> quick ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown experiment %S; expected table1|fig4|table2|fig5|fig6|fig7|table3|receipts|governance|audit|storage|micro|quick|all\n"
        other;
      exit 2
