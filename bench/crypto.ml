(* @crypto-bench: signature verification, inline vs tabled.

   One fixed job mix is verified twice: inline, with [Schnorr.verify] on
   untabled keys, and through [Vstage.verify], which interns each key and
   builds its fixed-base table on the key's third use (the replica's hot
   path). The tabled figure includes building the tables. Walls are
   medians over alternating rounds.

   Writes BENCH_crypto.json through the report layer's row emitter:
   deterministic counts gate Exact, wall-clock throughputs are Info. Not
   part of the default @runtest (wall-clock heavy); run with
   `dune build @crypto-bench`, or `dune exec bench/crypto.exe` from the
   repo root to keep the JSON. *)

open Iaccf_crypto
module Obs = Iaccf_obs.Obs
module Report = Iaccf_report.Report

let n_keys = 8
let n_jobs = 256

(* Each call derives fresh key values, so tables built on one set never
   accelerate another. *)
let make_keys () =
  Array.init n_keys (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "bench-%d" i))

(* A fixed job mix: round-robin keys, every 16th signature corrupted so
   the reject path is exercised too. Fully deterministic. *)
let make_jobs keys =
  List.init n_jobs (fun i ->
      let sk, pk = keys.(i mod n_keys) in
      let digest = Sha256.digest (Printf.sprintf "msg-%d" i) in
      let signature =
        if i mod 16 = 15 then String.make 64 '\x2a' else Schnorr.sign sk digest
      in
      (pk, digest, signature))

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verifies_s wall = if wall > 0.0 then float_of_int n_jobs /. wall else 0.0

(* One round: the job mix inline on fresh keys, then through a fresh
   stage on another fresh key set. *)
let round () =
  let inline, wall_inline =
    let jobs = make_jobs (make_keys ()) in
    time (fun () ->
        List.map (fun (pk, digest, signature) -> Schnorr.verify pk digest ~signature) jobs)
  in
  let obs = Obs.passive () in
  let st = Vstage.create ~obs () in
  let tabled, wall_tabled =
    let jobs = make_jobs (make_keys ()) in
    time (fun () ->
        List.map
          (fun (pk, digest, signature) ->
            Vstage.verify st ~cls:"bench" ~principal:Profile.Client_key pk digest
              ~signature)
          jobs)
  in
  if inline <> tabled then begin
    prerr_endline "crypto-bench: tabled verification diverged from inline";
    exit 1
  end;
  (inline, Obs.counter_value obs "crypto.keys.precomputed", wall_inline, wall_tabled)

(* Alternating rounds, medians reported: single sub-second samples on a
   shared machine drift by tens of percent. *)
let rounds = 5

let median xs = List.nth (List.sort Float.compare xs) (List.length xs / 2)

let () =
  let results = List.init rounds (fun _ -> round ()) in
  let inline, precomputed, _, _ = List.hd results in
  let wall_inline = median (List.map (fun (_, _, w, _) -> w) results) in
  let wall_tabled = median (List.map (fun (_, _, _, w) -> w) results) in
  let valid = List.length (List.filter Fun.id inline) in
  let speedup = if wall_tabled > 0.0 then wall_inline /. wall_tabled else 0.0 in
  Printf.printf "crypto-bench: %d jobs over %d keys (%d valid), median of %d rounds\n"
    n_jobs n_keys valid rounds;
  Printf.printf "  inline  %8.1f verifies/s  (%.3f s)\n" (verifies_s wall_inline)
    wall_inline;
  Printf.printf "  tabled  %8.1f verifies/s  (%.3f s, %d tables built)\n"
    (verifies_s wall_tabled) wall_tabled precomputed;
  Printf.printf "  tabled vs inline speedup: %.2fx\n%!" speedup;
  let bench = "crypto" in
  let series = Printf.sprintf "verify jobs=%d keys=%d" n_jobs n_keys in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  let info metric v = Report.row ~bench ~series ~metric ~gate:Report.Info v in
  Report.write_rows ~file:"BENCH_crypto.json" ~bench
    [
      exact "jobs" n_jobs;
      exact "valid" valid;
      exact "keys_precomputed" precomputed;
      info "inline_verifies_s" (verifies_s wall_inline);
      info "tabled_verifies_s" (verifies_s wall_tabled);
      info "speedup_tabled_vs_inline" speedup;
    ]
