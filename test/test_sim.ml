(* Simulator substrate tests: deterministic scheduling, latency models,
   delivery, drops, and partitions. *)

open Iaccf_sim
module Rng = Iaccf_util.Rng

let check = Alcotest.check

(* --- Sched --- *)

let test_sched_ordering () =
  let s = Sched.create () in
  let log = ref [] in
  ignore (Sched.schedule s ~delay:5.0 (fun () -> log := 2 :: !log));
  ignore (Sched.schedule s ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sched.schedule s ~delay:9.0 (fun () -> log := 3 :: !log));
  Sched.run s;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 0.001) "clock at last event" 9.0 (Sched.now s)

let test_sched_fifo_at_same_time () =
  let s = Sched.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sched.schedule s ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sched.run s;
  check Alcotest.(list int) "fifo among equal timestamps" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sched_cancel () =
  let s = Sched.create () in
  let fired = ref false in
  let c = Sched.schedule s ~delay:1.0 (fun () -> fired := true) in
  Sched.cancel c;
  Sched.run s;
  check Alcotest.bool "cancelled" false !fired;
  (* Cancelling twice is a no-op. *)
  Sched.cancel c

let test_sched_nested_scheduling () =
  let s = Sched.create () in
  let count = ref 0 in
  let rec tick n =
    if n > 0 then begin
      incr count;
      ignore (Sched.schedule s ~delay:1.0 (fun () -> tick (n - 1)))
    end
  in
  tick 10;
  Sched.run s;
  check Alcotest.int "chain of events" 10 !count;
  check (Alcotest.float 0.001) "virtual time advanced" 10.0 (Sched.now s)

let test_sched_until () =
  let s = Sched.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sched.schedule s ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sched.run ~until:5.5 s;
  check Alcotest.int "only events before the horizon" 5 !count;
  check Alcotest.int "rest still pending" 5 (Sched.pending s)

let test_sched_negative_delay_clamped () =
  let s = Sched.create () in
  ignore (Sched.schedule s ~delay:5.0 (fun () -> ()));
  Sched.run s;
  let fired = ref false in
  ignore (Sched.schedule s ~delay:(-3.0) (fun () -> fired := true));
  Sched.run s;
  check Alcotest.bool "clamped to now" true !fired;
  check (Alcotest.float 0.001) "clock monotone" 5.0 (Sched.now s)

(* --- Latency --- *)

let test_latency_constant () =
  let l = Latency.constant 7.0 in
  check (Alcotest.float 0.001) "sample" 7.0 (Latency.sample l ~src:0 ~dst:1);
  check (Alcotest.float 0.001) "rtt" 14.0 (Latency.nominal_rtt l ~src:0 ~dst:1)

let test_latency_wan_regions () =
  let l = Latency.wan (Rng.create 1) in
  (* Nodes 0 and 3 share region 0: fast. Nodes 0 and 1 are cross-region. *)
  let same = Latency.nominal_rtt l ~src:0 ~dst:3 in
  let cross = Latency.nominal_rtt l ~src:0 ~dst:1 in
  check Alcotest.bool "intra-region is much faster" true (same < cross /. 10.0)

let test_latency_jitter_bounded () =
  let l = Latency.dedicated_cluster (Rng.create 2) in
  for _ = 1 to 100 do
    let x = Latency.sample l ~src:0 ~dst:1 in
    if x < 0.05 || x > 0.06 +. 0.01 then Alcotest.failf "jitter out of range: %f" x
  done

(* --- Network --- *)

let make_net ?drop_rng () =
  let sched = Sched.create () in
  let net = Network.create ~sched ~latency:(Latency.constant 1.0) ?drop_rng () in
  (sched, net)

let test_network_delivery () =
  let sched, net = make_net () in
  let got = ref [] in
  Network.register net 1 (fun ~src msg -> got := (src, msg) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  Sched.run sched;
  check Alcotest.(list (pair int string)) "delivered with src" [ (0, "hello") ] !got

let test_network_unregistered_dropped () =
  let sched, net = make_net () in
  Network.send net ~src:0 ~dst:9 "lost";
  Sched.run sched;
  check Alcotest.int "sent counted" 1 (Network.messages_sent net);
  check Alcotest.int "not delivered" 0 (Network.messages_delivered net);
  check Alcotest.int "counted as unregistered drop" 1
    (Network.messages_dropped_unregistered net);
  check Alcotest.int "total drops" 1 (Network.messages_dropped net)

let test_network_partition_and_heal () =
  let sched, net = make_net () in
  let got = ref 0 in
  Network.register net 1 (fun ~src:_ _ -> incr got);
  Network.partition net [ 0 ] [ 1 ];
  Network.send net ~src:0 ~dst:1 "blocked";
  Network.send net ~src:1 ~dst:0 "also blocked";
  Sched.run sched;
  check Alcotest.int "cut both directions" 0 !got;
  check Alcotest.int "cut drops counted" 2 (Network.messages_dropped_cut net);
  Network.heal net;
  Network.send net ~src:0 ~dst:1 "through";
  Sched.run sched;
  check Alcotest.int "healed" 1 !got;
  check Alcotest.int "no further drops" 2 (Network.messages_dropped net)

let test_network_drop_probability () =
  let sched, net = make_net ~drop_rng:(Rng.create 3) () in
  let got = ref 0 in
  Network.register net 1 (fun ~src:_ _ -> incr got);
  Network.set_drop_probability net 0.5;
  for _ = 1 to 200 do
    Network.send net ~src:0 ~dst:1 "x"
  done;
  Sched.run sched;
  check Alcotest.bool (Printf.sprintf "about half dropped (got %d)" !got) true
    (!got > 50 && !got < 150);
  check Alcotest.int "probabilistic drops account for the rest" (200 - !got)
    (Network.messages_dropped_prob net);
  check Alcotest.int "no cut drops" 0 (Network.messages_dropped_cut net);
  check Alcotest.int "sent = delivered + dropped" 200
    (Network.messages_delivered net + Network.messages_dropped net)

let test_network_drop_accounting_kinds () =
  (* Cuts and probabilistic losses are tallied separately; a message lost
     to a cut must not consume a draw from the drop RNG. *)
  let sched, net = make_net ~drop_rng:(Rng.create 7) () in
  Network.register net 1 (fun ~src:_ _ -> ());
  Network.set_drop_probability net 1.0;
  Network.partition net [ 0 ] [ 1 ];
  Network.send net ~src:0 ~dst:1 "cut";
  Network.heal net;
  Network.send net ~src:0 ~dst:1 "prob";
  Network.send net ~src:0 ~dst:2 "unreg-but-prob-first";
  Sched.run sched;
  check Alcotest.int "one cut drop" 1 (Network.messages_dropped_cut net);
  check Alcotest.int "two probabilistic drops" 2 (Network.messages_dropped_prob net);
  check Alcotest.int "nothing delivered" 0 (Network.messages_delivered net);
  check Alcotest.int "sum" 3 (Network.messages_dropped net);
  check (Alcotest.float 0.0001) "drop rate" 1.0 (Network.drop_rate net)

let test_network_partition_oneway () =
  let sched, net = make_net () in
  let got = ref [] in
  List.iter
    (fun i -> Network.register net i (fun ~src msg -> got := (i, src, msg) :: !got))
    [ 0; 1 ];
  Network.partition_oneway net [ 0 ] [ 1 ];
  Network.send net ~src:0 ~dst:1 "silenced";
  Network.send net ~src:1 ~dst:0 "heard";
  Sched.run sched;
  check
    Alcotest.(list (triple int int string))
    "only the reverse direction delivers"
    [ (0, 1, "heard") ]
    !got;
  check Alcotest.int "directed drop counted" 1
    (Network.messages_dropped_cut_oneway net);
  check Alcotest.int "not as a two-way cut" 0 (Network.messages_dropped_cut net);
  check Alcotest.int "total drops" 1 (Network.messages_dropped net)

let test_network_heal_pair () =
  let sched, net = make_net () in
  let got = ref [] in
  List.iter
    (fun i -> Network.register net i (fun ~src:_ msg -> got := (i, msg) :: !got))
    [ 0; 1; 2; 3 ];
  Network.partition net [ 0 ] [ 1 ];
  Network.partition_oneway net [ 2 ] [ 3 ];
  (* Healing one pair must not disturb cuts between other pairs. *)
  Network.heal_pair net 0 1;
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:1 ~dst:0 "b";
  Network.send net ~src:2 ~dst:3 "still-cut";
  Sched.run sched;
  check
    Alcotest.(list (pair int string))
    "0<->1 restored, 2->3 still cut"
    [ (0, "b"); (1, "a") ]
    (List.sort compare !got);
  check Alcotest.int "directed drop remains" 1
    (Network.messages_dropped_cut_oneway net);
  (* heal_pair also clears directed cuts, in either orientation. *)
  Network.heal_pair net 3 2;
  Network.send net ~src:2 ~dst:3 "now-through";
  Sched.run sched;
  check Alcotest.bool "directed cut healed" true
    (List.mem (3, "now-through") !got)

(* The arrival hook fires once per scheduled delivery, at send time and
   before the handler runs; never for an inject, for a cut, lost or
   withheld send, for another node, or once the node is unregistered. *)
let test_network_arrival_hook () =
  let sched, net = make_net ~drop_rng:(Rng.create 5) () in
  let events = ref [] in
  let note e = events := e :: !events in
  Network.register net 1
    ~arrival:(fun ~src msg -> note (Printf.sprintf "arrive %d %s" src msg))
    (fun ~src msg -> note (Printf.sprintf "deliver %d %s" src msg));
  Network.register net 2 (fun ~src:_ _ -> ());
  let arrivals () =
    List.length (List.filter (fun e -> String.starts_with ~prefix:"arrive" e) !events)
  in
  Network.send net ~src:0 ~dst:1 "a";
  check Alcotest.int "fires at send time" 1 (arrivals ());
  Network.partition net [ 0 ] [ 1 ];
  Network.send net ~src:0 ~dst:1 "cut";
  Network.heal net;
  Network.partition_oneway net [ 0 ] [ 1 ];
  Network.send net ~src:0 ~dst:1 "cut-oneway";
  Network.heal net;
  Network.set_drop_probability net 1.0;
  Network.send net ~src:0 ~dst:1 "lost";
  Network.set_drop_probability net 0.0;
  Network.set_intercept net 0 (fun ~dst msg ->
      if msg = "withheld" then [] else [ (dst, msg); (dst, msg ^ "'") ]);
  Network.send net ~src:0 ~dst:1 "withheld";
  Network.send net ~src:0 ~dst:1 "dup";
  Network.clear_intercept net 0;
  Network.send net ~src:0 ~dst:2 "other node";
  Network.inject net ~src:7 ~dst:1 "injected";
  Sched.run sched;
  check
    Alcotest.(list string)
    "each send's arrival first; an inject has none and is due at once"
    [
      "arrive 0 a";
      "arrive 0 dup";
      "arrive 0 dup'";
      "deliver 7 injected";
      "deliver 0 a";
      "deliver 0 dup";
      "deliver 0 dup'";
    ]
    (List.rev !events);
  Network.unregister net 1;
  Network.send net ~src:0 ~dst:1 "after";
  Network.inject net ~src:7 ~dst:1 "after";
  Sched.run sched;
  check Alcotest.int "none after unregister" 3 (arrivals ());
  Network.register net 1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "re-registered";
  Sched.run sched;
  check Alcotest.int "none once registered without one" 3 (arrivals ())

let test_network_intercept_accounting () =
  let sched, net = make_net () in
  let got = ref [] in
  List.iter
    (fun i -> Network.register net i (fun ~src msg -> got := (i, src, msg) :: !got))
    [ 1; 2 ];
  (* Withhold everything to dst 1; duplicate everything else to dsts 1 and 2. *)
  Network.set_intercept net 0 (fun ~dst msg ->
      if dst = 1 then [] else [ (1, msg); (2, msg ^ "'") ]);
  Network.send net ~src:0 ~dst:1 "withheld";
  Network.send net ~src:0 ~dst:2 "dup";
  Sched.run sched;
  (* A withheld message is one send dropped as intercepted; a 2-way
     equivocation is two sends, both delivered with the true src. *)
  check Alcotest.int "sent: 1 withheld + 2 expanded" 3 (Network.messages_sent net);
  check Alcotest.int "one intercepted drop" 1
    (Network.messages_dropped_intercepted net);
  check
    Alcotest.(list (triple int int string))
    "expanded transmissions deliver, src preserved"
    [ (1, 0, "dup"); (2, 0, "dup'") ]
    (List.sort compare !got);
  Network.clear_intercept net 0;
  Network.send net ~src:0 ~dst:1 "direct";
  Sched.run sched;
  check Alcotest.bool "cleared intercept passes through" true
    (List.mem (1, 0, "direct") !got)

let test_network_conservation_all_kinds () =
  (* The conservation identity across every drop kind at once:
     sent = delivered + cut + cut_oneway + prob + unregistered + intercepted. *)
  let sched, net = make_net ~drop_rng:(Rng.create 11) () in
  List.iter (fun i -> Network.register net i (fun ~src:_ _ -> ())) [ 0; 1; 2; 3 ];
  Network.partition net [ 0 ] [ 1 ];
  Network.partition_oneway net [ 2 ] [ 3 ];
  Network.set_intercept net 3 (fun ~dst:_ _ -> []);
  Network.send net ~src:0 ~dst:1 "cut";
  Network.send net ~src:2 ~dst:3 "cut-oneway";
  Network.send net ~src:3 ~dst:0 "intercepted";
  Network.send net ~src:2 ~dst:9 "unregistered";
  Network.set_drop_probability net 1.0;
  Network.send net ~src:2 ~dst:0 "prob";
  Network.set_drop_probability net 0.0;
  Network.send net ~src:2 ~dst:0 "delivered";
  Sched.run sched;
  check Alcotest.int "cut" 1 (Network.messages_dropped_cut net);
  check Alcotest.int "cut oneway" 1 (Network.messages_dropped_cut_oneway net);
  check Alcotest.int "intercepted" 1 (Network.messages_dropped_intercepted net);
  check Alcotest.int "unregistered" 1 (Network.messages_dropped_unregistered net);
  check Alcotest.int "prob" 1 (Network.messages_dropped_prob net);
  check Alcotest.int "delivered" 1 (Network.messages_delivered net);
  check Alcotest.int "sent = delivered + every drop kind"
    (Network.messages_sent net)
    (Network.messages_delivered net + Network.messages_dropped net)

let test_network_drop_requires_rng () =
  let _, net = make_net () in
  Alcotest.check_raises "needs rng"
    (Invalid_argument "Network.set_drop_probability: no drop_rng supplied")
    (fun () -> Network.set_drop_probability net 0.5)

let test_network_broadcast () =
  let sched, net = make_net () in
  let got = ref [] in
  List.iter (fun i -> Network.register net i (fun ~src:_ _ -> got := i :: !got)) [ 1; 2; 3 ];
  Network.broadcast net ~src:0 ~dsts:[ 1; 2; 3 ] "all";
  Sched.run sched;
  check Alcotest.(list int) "all receive" [ 1; 2; 3 ] (List.sort compare !got)

let test_determinism () =
  (* Two identically-seeded worlds must evolve identically. *)
  let run () =
    let sched = Sched.create () in
    let rng = Rng.create 77 in
    let net =
      Network.create ~sched ~latency:(Latency.dedicated_cluster (Rng.split rng)) ()
    in
    let log = Buffer.create 64 in
    List.iter
      (fun i ->
        Network.register net i (fun ~src msg ->
            Buffer.add_string log (Printf.sprintf "%d<-%d:%s@%.4f;" i src msg (Sched.now sched))))
      [ 0; 1; 2 ];
    for i = 1 to 20 do
      Network.send net ~src:(i mod 3) ~dst:((i + 1) mod 3) (string_of_int i)
    done;
    Sched.run sched;
    Buffer.contents log
  in
  check Alcotest.string "identical runs" (run ()) (run ())

let () =
  Alcotest.run "iaccf_sim"
    [
      ( "sched",
        [
          Alcotest.test_case "time ordering" `Quick test_sched_ordering;
          Alcotest.test_case "fifo at ties" `Quick test_sched_fifo_at_same_time;
          Alcotest.test_case "cancel" `Quick test_sched_cancel;
          Alcotest.test_case "nested" `Quick test_sched_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_sched_until;
          Alcotest.test_case "negative delay" `Quick test_sched_negative_delay_clamped;
        ] );
      ( "latency",
        [
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "wan regions" `Quick test_latency_wan_regions;
          Alcotest.test_case "jitter bounded" `Quick test_latency_jitter_bounded;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_network_delivery;
          Alcotest.test_case "unregistered" `Quick test_network_unregistered_dropped;
          Alcotest.test_case "partition/heal" `Quick test_network_partition_and_heal;
          Alcotest.test_case "drop probability" `Quick test_network_drop_probability;
          Alcotest.test_case "drop accounting kinds" `Quick
            test_network_drop_accounting_kinds;
          Alcotest.test_case "one-way partition" `Quick test_network_partition_oneway;
          Alcotest.test_case "heal pair" `Quick test_network_heal_pair;
          Alcotest.test_case "intercept accounting" `Quick
            test_network_intercept_accounting;
          Alcotest.test_case "arrival hook" `Quick test_network_arrival_hook;
          Alcotest.test_case "conservation across drop kinds" `Quick
            test_network_conservation_all_kinds;
          Alcotest.test_case "drop requires rng" `Quick test_network_drop_requires_rng;
          Alcotest.test_case "broadcast" `Quick test_network_broadcast;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]
