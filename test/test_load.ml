(* Open-loop load harness tests (lib/load): arrival-process statistics,
   Zipf skew, session-table determinism and memory discipline, and
   admission-control behaviour on a capacity-limited cluster. *)

open Iaccf_load
module Rng = Iaccf_util.Rng
module Request = Iaccf_types.Request
module Obs = Iaccf_obs.Obs
module Sched = Iaccf_sim.Sched
module Latency = Iaccf_sim.Latency
open Iaccf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- arrival processes --- *)

let mean_gap shape ~seed ~n =
  let a = Arrival.create ~rng:(Rng.create seed) shape in
  let now = ref 0.0 and total = ref 0.0 in
  for _ = 1 to n do
    let gap = Arrival.next_gap_ms a ~now_ms:!now in
    now := !now +. gap;
    total := !total +. gap
  done;
  !total /. float_of_int n

(* The empirical mean interarrival gap of a Poisson process must sit
   within 15% of 1000/rate ms (2000 draws put the standard error of the
   mean near 2%, so 15% is a loose, flake-free band). *)
let qcheck_poisson_mean =
  QCheck.Test.make ~name:"poisson interarrival mean in bounds" ~count:30
    QCheck.(pair small_nat (oneofl [ 50.0; 200.0; 1000.0 ]))
    (fun (seed, rate) ->
      let m = mean_gap (Arrival.Poisson rate) ~seed ~n:2000 in
      let expect = 1000.0 /. rate in
      m > 0.85 *. expect && m < 1.15 *. expect)

let qcheck_gaps_nonnegative =
  QCheck.Test.make ~name:"every arrival gap is nonnegative" ~count:50
    QCheck.(pair small_nat (oneofl [ 10.0; 300.0 ]))
    (fun (seed, rate) ->
      let shapes =
        [
          Arrival.Constant rate;
          Arrival.Poisson rate;
          Arrival.Onoff
            { on_rate = rate; off_rate = 0.0; on_ms = 50.0; off_ms = 50.0 };
          Arrival.Diurnal
            { base_rate = 0.0; peak_rate = rate; period_ms = 500.0 };
        ]
      in
      List.for_all
        (fun shape ->
          let a = Arrival.create ~rng:(Rng.create seed) shape in
          let now = ref 0.0 and ok = ref true in
          for _ = 1 to 200 do
            let gap = Arrival.next_gap_ms a ~now_ms:!now in
            if gap < 0.0 then ok := false;
            now := !now +. gap
          done;
          !ok)
        shapes)

(* Long-run empirical rate of the modulated shapes tracks mean_rate. *)
let test_modulated_mean_rate () =
  List.iter
    (fun shape ->
      let m = mean_gap shape ~seed:11 ~n:20_000 in
      let empirical = 1000.0 /. m in
      let expect = Arrival.mean_rate shape in
      if abs_float (empirical -. expect) > 0.2 *. expect then
        Alcotest.failf "empirical rate %.1f/s vs mean_rate %.1f/s" empirical
          expect)
    [
      Arrival.Onoff
        { on_rate = 400.0; off_rate = 40.0; on_ms = 100.0; off_ms = 300.0 };
      Arrival.Diurnal
        { base_rate = 50.0; peak_rate = 250.0; period_ms = 1_000.0 };
    ]

let test_arrival_determinism () =
  let draws shape =
    let a = Arrival.create ~rng:(Rng.create 42) shape in
    let now = ref 0.0 in
    List.init 100 (fun _ ->
        let gap = Arrival.next_gap_ms a ~now_ms:!now in
        now := !now +. gap;
        gap)
  in
  List.iter
    (fun shape ->
      check Alcotest.(list (float 0.0)) "same seed, same gaps" (draws shape)
        (draws shape))
    [
      Arrival.Poisson 100.0;
      Arrival.Onoff
        { on_rate = 400.0; off_rate = 10.0; on_ms = 50.0; off_ms = 200.0 };
      Arrival.Diurnal
        { base_rate = 20.0; peak_rate = 200.0; period_ms = 400.0 };
    ]

let test_arrival_validation () =
  List.iter
    (fun shape ->
      match Arrival.create ~rng:(Rng.create 1) shape with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid shape accepted")
    [
      Arrival.Constant 0.0;
      Arrival.Poisson (-3.0);
      Arrival.Onoff
        { on_rate = 0.0; off_rate = 0.0; on_ms = 10.0; off_ms = 10.0 };
      Arrival.Diurnal
        { base_rate = 10.0; peak_rate = 5.0; period_ms = 100.0 };
    ]

(* --- Zipf skew --- *)

let qcheck_zipf_monotone =
  QCheck.Test.make ~name:"zipf rank weights strictly decrease" ~count:40
    QCheck.(pair (int_range 2 400) (oneofl [ 0.5; 0.99; 1.2 ]))
    (fun (n, theta) ->
      let z = Zipf.create ~theta ~n () in
      let ok = ref true in
      for i = 0 to n - 2 do
        if Zipf.weight z i <= Zipf.weight z (i + 1) then ok := false
      done;
      let total = ref 0.0 in
      for i = 0 to n - 1 do
        total := !total +. Zipf.weight z i
      done;
      !ok && abs_float (!total -. 1.0) < 1e-9)

let test_zipf_sampled_skew () =
  let n = 100 in
  let z = Zipf.create ~theta:0.99 ~n () in
  let rng = Rng.create 7 in
  let counts = Array.make n 0 in
  for _ = 1 to 20_000 do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 0 hotter than rank n-1" true
    (counts.(0) > 4 * max 1 counts.(n - 1));
  (* Empirical frequency of the hottest rank tracks its analytic mass. *)
  let f0 = float_of_int counts.(0) /. 20_000.0 in
  let w0 = Zipf.weight z 0 in
  check Alcotest.bool "rank-0 frequency near its weight" true
    (abs_float (f0 -. w0) < 0.25 *. w0)

let test_zipf_uniform_degenerate () =
  let z = Zipf.create ~theta:0.0 ~n:10 () in
  for i = 0 to 8 do
    check (Alcotest.float 1e-9) "uniform weights" (Zipf.weight z i)
      (Zipf.weight z (i + 1))
  done

(* --- session table --- *)

let make_cluster ?(params = Replica.default_params) ?(seed = 3) () =
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let cluster =
    Cluster.make ~seed ~n:4 ~params
      ~latency:(fun _ -> Latency.constant 5.0)
      ~obs ()
  in
  (cluster, obs)

let test_session_determinism () =
  let cluster, _ = make_cluster () in
  let genesis = Cluster.genesis cluster in
  let table () = Session.create ~seed:"st" ~genesis ~n:64 () in
  let requests t =
    List.init 40 (fun i ->
        let id = (i * 7) mod 64 in
        Request.hash
          (Session.make_request t ~id ~proc:"counter/add"
             ~args:(string_of_int i) ()))
  in
  let a = table () and b = table () in
  check Alcotest.bool "same seed, byte-identical request stream" true
    (requests a = requests b);
  (* Nonces advanced identically and only for touched sessions. *)
  check Alcotest.int "nonces match" (Session.nonce a ~id:0)
    (Session.nonce b ~id:0);
  check Alcotest.int "untouched session has nonce 0" 0 (Session.nonce a ~id:1);
  check Alcotest.int "sessions_used counted" (Session.sessions_used a)
    (Session.sessions_used b)

let test_session_nonce_advances () =
  let cluster, _ = make_cluster () in
  let t = Session.create ~seed:"n" ~genesis:(Cluster.genesis cluster) ~n:4 () in
  let r1 = Session.make_request t ~id:2 ~proc:"noop" ~args:"" () in
  let r2 = Session.make_request t ~id:2 ~proc:"noop" ~args:"" () in
  check Alcotest.int "nonce counts requests" 2 (Session.nonce t ~id:2);
  check Alcotest.bool "distinct nonces, distinct requests" true
    (Request.hash r1 <> Request.hash r2)

let test_session_lru_bounded () =
  let cluster, _ = make_cluster () in
  let genesis = Cluster.genesis cluster in
  let t = Session.create ~key_cache:8 ~seed:"lru" ~genesis ~n:32 () in
  (* First pass derives every key; a second pass over the same 32 ids
     must re-derive evicted ones (cache 8 < working set 32) — but a tight
     loop over 4 hot ids must not re-derive at all. *)
  for id = 0 to 31 do
    ignore (Session.public_key t ~id)
  done;
  check Alcotest.int "cold pass derives all" 32 (Session.derived_keys t);
  for id = 0 to 31 do
    ignore (Session.public_key t ~id)
  done;
  check Alcotest.bool "evictions force re-derivation" true
    (Session.derived_keys t > 32);
  let before = Session.derived_keys t in
  for _ = 1 to 20 do
    for id = 28 to 31 do
      ignore (Session.public_key t ~id)
    done
  done;
  check Alcotest.int "hot ids stay cached" before (Session.derived_keys t)

let test_session_out_of_range () =
  let cluster, _ = make_cluster () in
  let t = Session.create ~seed:"r" ~genesis:(Cluster.genesis cluster) ~n:2 () in
  match Session.make_request t ~id:2 ~proc:"noop" ~args:"" () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range session accepted"

(* --- closed-loop pump --- *)

let test_pump_closed_loop () =
  let pending = ref [] in
  let submitted, completed =
    Pump.closed_loop ~total:10 ~concurrency:3
      ~submit:(fun ~seq:_ ~on_complete -> pending := on_complete :: !pending)
      ()
  in
  check Alcotest.int "window fills to concurrency" 3 (List.length !pending);
  (* Completing one admits exactly one more until the total is reached. *)
  let rec drain () =
    match !pending with
    | [] -> ()
    | k :: rest ->
        pending := rest;
        k ();
        drain ()
  in
  drain ();
  check Alcotest.int "all submitted" 10 !submitted;
  check Alcotest.int "all completed" 10 !completed

(* --- admission control on a capacity-limited cluster --- *)

(* Pipeline 1 over 5 ms links commits a batch every ~15 ms; max_batch 1
   caps capacity near 66 tx/s, so a 400/s constant stream keeps the
   2-deep admission queue full for the whole window. *)
let overload_params =
  {
    Replica.default_params with
    pipeline = 1;
    max_batch = 1;
    batch_delay_ms = 4.0;
    admission_queue = 2;
  }

let test_admission_reject_and_retry () =
  let cluster, obs = make_cluster ~params:overload_params ~seed:5 () in
  let gen =
    Gen.create ~cluster ~sessions:32 ~seed:5
      ~arrival:(Arrival.Constant 400.0) ()
  in
  Gen.start gen ~duration_ms:250.0;
  (* A full client submitting mid-overload is rejected with Busy and must
     still commit through its ordinary retransmit path. *)
  let committed = ref false in
  ignore
    (Sched.schedule (Cluster.sched cluster) ~delay:50.0 (fun () ->
         Client.submit
           (Cluster.add_client cluster ())
           ~proc:"counter/add" ~args:"9"
           ~on_complete:(fun _ -> committed := true)
           ()));
  check Alcotest.bool "client request eventually commits" true
    (Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () -> !committed));
  check Alcotest.bool "generator drains after the burst" true
    (Gen.drain gen ());
  let s = Gen.stats gen in
  check Alcotest.bool "full queue rejected work" true (s.Gen.ls_rejected > 0);
  check Alcotest.bool "replicas counted rejections" true
    (Obs.counter_value obs "load.rejected" > 0);
  check Alcotest.bool "rejected requests were retried" true
    (s.Gen.ls_retries > 0);
  check Alcotest.int "no request silently dropped" s.Gen.ls_offered
    s.Gen.ls_committed;
  check Alcotest.int "nothing outstanding after drain" 0 s.Gen.ls_outstanding

let () =
  Alcotest.run "iaccf_load"
    [
      ( "arrival",
        [
          qtest qcheck_poisson_mean;
          qtest qcheck_gaps_nonnegative;
          Alcotest.test_case "modulated mean rate" `Quick
            test_modulated_mean_rate;
          Alcotest.test_case "determinism" `Quick test_arrival_determinism;
          Alcotest.test_case "validation" `Quick test_arrival_validation;
        ] );
      ( "zipf",
        [
          qtest qcheck_zipf_monotone;
          Alcotest.test_case "sampled skew" `Quick test_zipf_sampled_skew;
          Alcotest.test_case "uniform degenerate" `Quick
            test_zipf_uniform_degenerate;
        ] );
      ( "session",
        [
          Alcotest.test_case "determinism" `Quick test_session_determinism;
          Alcotest.test_case "nonce advances" `Quick test_session_nonce_advances;
          Alcotest.test_case "lru bounded" `Quick test_session_lru_bounded;
          Alcotest.test_case "out of range" `Quick test_session_out_of_range;
        ] );
      ( "pump",
        [ Alcotest.test_case "closed loop" `Quick test_pump_closed_loop ] );
      ( "admission",
        [
          Alcotest.test_case "reject and retry" `Quick
            test_admission_reject_and_retry;
        ] );
    ]
