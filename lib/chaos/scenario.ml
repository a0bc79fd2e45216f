module Genesis = Iaccf_types.Genesis
module Config = Iaccf_types.Config
module Ledger = Iaccf_ledger.Ledger
module Checkpoint = Iaccf_kv.Checkpoint
module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Obs = Iaccf_obs.Obs
module Schnorr = Iaccf_crypto.Schnorr
open Iaccf_core

type suite = Core | Byzantine | Recovery

let suite_name = function
  | Core -> "core"
  | Byzantine -> "byzantine"
  | Recovery -> "recovery"

let suite_of_name = function
  | "core" -> Some Core
  | "byzantine" -> Some Byzantine
  | "recovery" -> Some Recovery
  | _ -> None

type expect = Tolerated | Blamed of { culprits : int list }

type ctx = { cx_cluster : Cluster.t; cx_seed : int; cx_scratch : string }

type step = { st_at_ms : float; st_label : string; st_act : ctx -> unit }

type outcome = {
  oc_genesis : Genesis.t;
  oc_params : Replica.params;
  oc_receipts : Receipt.t list;
  oc_gov_receipts : Receipt.t list;
  oc_ledger : Ledger.t;
  oc_checkpoint : Checkpoint.t option;
  oc_responder : int;
  oc_submitted : int;
  oc_completed : int;
  oc_lincheck_closed : bool;
      (* whether oc_receipts are closed over the state they touch, so the
         linearizability check is meaningful (false after a storage crash
         that may have legally discarded an unsynced suffix) *)
  oc_obs : Obs.t;
}

type t = {
  sc_name : string;
  sc_suite : suite;
  sc_expect : expect;
  sc_run : seed:int -> scratch:string -> outcome;
}

(* --- fault actions (the combinator vocabulary) --- *)

let at st_at_ms st_label st_act = { st_at_ms; st_label; st_act }

let crash_replica id ctx = Replica.stop (Cluster.replica ctx.cx_cluster id)
let restart_replica id ctx = Replica.start (Cluster.replica ctx.cx_cluster id)

let partition a b ctx = Network.partition (Cluster.network ctx.cx_cluster) a b

let partition_oneway srcs dsts ctx =
  Network.partition_oneway (Cluster.network ctx.cx_cluster) srcs dsts

let heal_pair a b ctx = Network.heal_pair (Cluster.network ctx.cx_cluster) a b
let heal ctx = Network.heal (Cluster.network ctx.cx_cluster)

let set_loss p ctx =
  Network.set_drop_probability (Cluster.network ctx.cx_cluster) p

let byzantine id behaviour ctx =
  let sk = Cluster.replica_sk ctx.cx_cluster id in
  Network.set_intercept
    (Cluster.network ctx.cx_cluster)
    id
    (Byz.intercept ~sk ~genesis:(Cluster.genesis ctx.cx_cluster)
       ~client_base:Cluster.client_base behaviour)

let honest id ctx = Network.clear_intercept (Cluster.network ctx.cx_cluster) id

let suspect_primary id ctx =
  Replica.inject_view_change (Cluster.replica ctx.cx_cluster id)

(* --- workload helper (shared by the live harness and recovery scenarios) --- *)

(* Submit [n] requests, paced so scripted faults land mid-stream, and return
   the receipts (with completion count) once the cluster goes quiet. *)
let workload ?(pace_ms = 25.0) ?(proc = "counter/add") ?(args = string_of_int)
    ~timeout_ms cluster client n =
  let receipts = ref [] in
  let completed = ref 0 in
  let sched = Cluster.sched cluster in
  for i = 1 to n do
    ignore
      (Sched.schedule sched
         ~delay:(float_of_int (i - 1) *. pace_ms)
         (fun () ->
           Client.submit client ~proc ~args:(args i)
             ~on_complete:(fun oc ->
               receipts := oc.Client.oc_receipt :: !receipts;
               incr completed)
             ()))
  done;
  let ok = Cluster.run_until cluster ~timeout_ms (fun () -> !completed = n) in
  (* Settle: let stragglers (replies in flight, view changes) finish so the
     responder's ledger covers every receipt. *)
  Cluster.run cluster ~ms:2_000.0;
  ignore ok;
  (List.rev !receipts, !completed)

(* The responder must hold every receipt: pick the running replica with the
   longest ledger (a restarted or partitioned replica may legally be behind). *)
let pick_responder cluster =
  let best = ref None in
  List.iter
    (fun r ->
      if Replica.active r then
        let len = Ledger.length (Replica.ledger r) in
        match !best with
        | Some (_, l) when l >= len -> ()
        | _ -> best := Some (r, len))
    (Cluster.replicas cluster);
  match !best with
  | Some (r, _) -> r
  | None -> invalid_arg "Scenario: no active replica left to respond"

(* --- live harness: cluster + paced workload + scripted faults --- *)

let live ~name ~suite ?(n = 4) ?(requests = 8) ?(proc = "counter/add")
    ?(timeout_ms = 600_000.0) ?(expect = Tolerated)
    ?(params = Replica.default_params) steps =
  let run ~seed ~scratch =
    let obs = Obs.create ~metrics:true ~tracing:false () in
    let cluster = Cluster.make ~seed ~n ~params ~obs () in
    let ctx = { cx_cluster = cluster; cx_seed = seed; cx_scratch = scratch } in
    let sched = Cluster.sched cluster in
    List.iter
      (fun s ->
        ignore (Sched.schedule sched ~delay:s.st_at_ms (fun () -> s.st_act ctx)))
      steps;
    let client = Cluster.add_client cluster () in
    let receipts, completed = workload ~proc ~timeout_ms cluster client requests in
    let responder = pick_responder cluster in
    {
      oc_genesis = Cluster.genesis cluster;
      oc_params = Cluster.params cluster;
      oc_receipts = receipts;
      oc_gov_receipts = [];
      oc_ledger = Replica.ledger responder;
      oc_checkpoint = None;
      oc_responder = Replica.id responder;
      oc_submitted = requests;
      oc_completed = completed;
      oc_lincheck_closed = true;
      oc_obs = obs;
    }
  in
  { sc_name = name; sc_suite = suite; sc_expect = expect; sc_run = run }

(* --- forged harness: a colluding quorum fabricates ledgers offline --- *)

type forgery = {
  fg_receipts : Receipt.t list;
  fg_gov_receipts : Receipt.t list;
  fg_ledger : Ledger.t;
}

(* The collusion worlds mirror test fixtures: a real cluster supplies the
   identity (genesis, keys); the culprit subset forges with those keys. *)
type collusion = {
  co_genesis : Genesis.t;
  co_app : App.t;
  co_seed : int;
  co_forge : unit -> Forge.t;
  co_request : ?client_seqno:int -> string -> string -> Iaccf_types.Request.t;
}

let forged ~name ~culprits ?(n = 4) build =
  let run ~seed ~scratch =
    ignore scratch;
    let obs = Obs.create ~metrics:true ~tracing:false () in
    let cluster = Cluster.make ~seed ~n ~obs () in
    let genesis = Cluster.genesis cluster in
    let app = App.create Cluster.counter_app_procs in
    let sks = List.map (fun i -> (i, Cluster.replica_sk cluster i)) culprits in
    let client_sk, client_pk =
      Schnorr.keypair_of_seed (Printf.sprintf "chaos-forge-client-%d" seed)
    in
    let co =
      {
        co_genesis = genesis;
        co_app = app;
        co_seed = seed;
        co_forge =
          (fun () ->
            Forge.create ~genesis ~sks ~app ~pipeline:2 ~checkpoint_interval:100);
        co_request =
          (fun ?(client_seqno = 0) proc args ->
            Iaccf_types.Request.make ~sk:client_sk ~client_pk
              ~service:(Genesis.hash genesis) ~min_index:0 ~client_seqno ~proc
              ~args ());
      }
    in
    let f = build co in
    {
      oc_genesis = genesis;
      oc_params = Cluster.params cluster;
      oc_receipts = f.fg_receipts;
      oc_gov_receipts = f.fg_gov_receipts;
      oc_ledger = f.fg_ledger;
      oc_checkpoint = None;
      oc_responder = List.hd culprits;
      oc_submitted = 0;
      oc_completed = 0;
      oc_lincheck_closed = false;
      oc_obs = obs;
    }
  in
  {
    sc_name = name;
    sc_suite = Byzantine;
    sc_expect = Blamed { culprits };
    sc_run = run;
  }

(* --- custom harness (recovery scenarios drive several cluster lifetimes) --- *)

let custom ~name ~suite ?(expect = Tolerated) run =
  { sc_name = name; sc_suite = suite; sc_expect = expect; sc_run = run }

let faulty_f genesis =
  let n = List.length genesis.Genesis.initial_config.Config.replicas in
  (n - 1) / 3
