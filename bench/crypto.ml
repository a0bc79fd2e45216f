(* @crypto-bench: signature verification, inline vs tabled, and the cost
   of each primitive under it.

   One fixed job mix is verified twice: inline, with [Schnorr.verify] on
   untabled keys, and through [Vstage.verify], which interns each key and
   builds its fixed-base table on the key's third use (the replica's hot
   path). The tabled figure includes building the tables. Walls are
   medians over alternating rounds. The primitive rows time one field
   multiply, one squaring and an untabled [Group.pow] (the last two
   checked against known answers first), [Group.pow_g], signing,
   verification with and without the key's table, building the table,
   SHA-256 at 33, 65 and 1,000 bytes (checked against known answers
   first), and a checkpoint digest over
   SmallBank-shaped states of 2k, 20k and 200k keys (each checked first
   against an explicitly sorted encoding), each the median of [rounds]
   loops.

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

(* Median seconds per call of [f] over [rounds] loops of [n] calls. *)
let per_call n f =
  median
    (List.init rounds (fun _ ->
         snd
           (time (fun () ->
                for _ = 1 to n do
                  ignore (Sys.opaque_identity (f ()))
                done))
         /. float_of_int n))

(* SHA-256 over runs of 'a': the two sizes the hot path hashes most (a
   tagged 32-byte digest, two of them) and a long input for the per-byte
   rate, each with its known answer. *)
let sha256_inputs =
  [
    (33, "852785c805c77e71a22340a54e9d95933ed49121e7d2bf3c2d358854bc1359ea");
    (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
    (1000, "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
  ]

let sha256_rows () =
  List.iter
    (fun (n, expect) ->
      if Iaccf_util.Hex.encode (Sha256.digest (String.make n 'a')) <> expect then begin
        Printf.eprintf "crypto-bench: SHA-256 of %d bytes diverged from its known answer\n" n;
        exit 1
      end)
    sha256_inputs;
  let ns n =
    let s = String.make n 'a' in
    1e9 *. per_call (2_000_000 / (n + 100)) (fun () -> Sha256.digest s)
  in
  [
    ("sha256_33b_ns", ns 33);
    ("sha256_65b_ns", ns 65);
    ("sha256_ns_per_byte", ns 1000 /. 1000.0);
  ]

(* A SmallBank-shaped state: a checking and a savings balance per account. *)
let smallbank_state ~keys =
  List.concat_map
    (fun id ->
      [
        (Printf.sprintf "sb/c/%d" id, string_of_int (1000 + (7 * id mod 9973)));
        (Printf.sprintf "sb/s/%d" id, string_of_int (2000 + (3 * id mod 7919)));
      ])
    (List.init (keys / 2) Fun.id)

(* The digest as defined: [u64 seqno], then every binding sorted by key
   and encoded [u32 len ‖ key ‖ u32 len ‖ value]. *)
let sorted_digest ~seqno kvs =
  let module W = Iaccf_util.Codec.W in
  Iaccf_util.Codec.encode (fun w ->
      W.u64 w seqno;
      List.iter
        (fun (k, v) ->
          W.bytes w k;
          W.bytes w v)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) kvs))
  |> Digest32.of_string

let checkpoint_rows () =
  List.map
    (fun (label, keys, n) ->
      let kvs = smallbank_state ~keys in
      let cp = Iaccf_kv.Checkpoint.make ~seqno:50 (Iaccf_kv.State.of_list kvs) in
      if not (Digest32.equal (Iaccf_kv.Checkpoint.digest cp) (sorted_digest ~seqno:50 kvs))
      then begin
        Printf.eprintf
          "crypto-bench: checkpoint digest over %d keys diverged from the sorted encoding\n" keys;
        exit 1
      end;
      ( "checkpoint_digest_us_" ^ label,
        1e6 *. per_call n (fun () -> Iaccf_kv.Checkpoint.digest cp) ))
    [ ("2k", 2_000, 200); ("20k", 20_000, 20); ("200k", 200_000, 2) ]

(* x = g^e for e the digest of "bench-primitives" reduced mod n: the
   known answers of x^2 and x^e (untabled [Group.pow], the cold-key path),
   from an independent modular exponentiation. *)
let field_known_answers x e =
  List.iter
    (fun (name, got, expect) ->
      if Iaccf_util.Hex.encode (Group.element_to_bytes got) <> expect then begin
        Printf.eprintf "crypto-bench: %s diverged from its known answer\n" name;
        exit 1
      end)
    [
      ("sqr", Group.sqr x, "718bbb8990123039be88dcf9f74443ccb11c5064c26af6e4c85a1a4724231733");
      ("pow", Group.pow x e, "57fd799bca1e25d8eeefb0b822b7d6dabb50b9ec6f7ac522c75165fde7876274");
    ]

let primitives () =
  let sk, pk = Schnorr.keypair_of_seed "bench-primitives" in
  let pk_bytes = Schnorr.public_key_to_bytes pk in
  let digest = Sha256.digest "bench-primitives" in
  let signature = Schnorr.sign sk digest in
  let e = Group.scalar_of_bytes digest in
  let x = Group.pow_g e in
  field_known_answers x e;
  let fresh () = Option.get (Schnorr.public_key_of_bytes pk_bytes) in
  let tabled = fresh () and untabled = fresh () in
  Schnorr.precompute tabled;
  [
    ("field_mul_ns", 1e9 *. per_call 100_000 (fun () -> Group.mul x x));
    ("field_sqr_ns", 1e9 *. per_call 100_000 (fun () -> Group.sqr x));
    ("pow_us", 1e6 *. per_call 500 (fun () -> Group.pow x e));
    ("pow_g_us", 1e6 *. per_call 2_000 (fun () -> Group.pow_g e));
    ("sign_us", 1e6 *. per_call 1_000 (fun () -> Schnorr.sign sk digest));
    ( "verify_tabled_us",
      1e6 *. per_call 1_000 (fun () -> Schnorr.verify tabled digest ~signature) );
    ( "verify_untabled_us",
      1e6 *. per_call 500 (fun () -> Schnorr.verify untabled digest ~signature) );
    ("precompute_us", 1e6 *. per_call 200 (fun () -> Schnorr.precompute (fresh ())));
  ]
  @ sha256_rows () @ checkpoint_rows ()

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
  let primitives = primitives () in
  List.iter (fun (metric, v) -> Printf.printf "  %-26s %10.3f\n" metric v) primitives;
  let bench = "crypto" in
  let series = Printf.sprintf "verify jobs=%d keys=%d" n_jobs n_keys in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  let info metric v = Report.row ~bench ~series ~metric ~gate:Report.Info v in
  Report.write_rows ~file:"BENCH_crypto.json" ~bench
    ([
      exact "jobs" n_jobs;
      exact "valid" valid;
      exact "keys_precomputed" precomputed;
      info "inline_verifies_s" (verifies_s wall_inline);
      info "tabled_verifies_s" (verifies_s wall_tabled);
      info "speedup_tabled_vs_inline" speedup;
    ]
    @ List.map
        (fun (metric, v) -> Report.row ~bench ~series:"primitives" ~metric ~gate:Report.Info v)
        primitives)
