module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Latency = Iaccf_sim.Latency
module Config = Iaccf_types.Config
module Genesis = Iaccf_types.Genesis
module Schnorr = Iaccf_crypto.Schnorr
module Rng = Iaccf_util.Rng
module D = Iaccf_crypto.Digest32
module Obs = Iaccf_obs.Obs
module Profile = Iaccf_crypto.Profile

let client_base = 100

type member_identity = {
  mi_name : string;
  mi_sk : Schnorr.secret_key;
  mi_pk : Schnorr.public_key;
}

type t = {
  seed : int;
  sched : Sched.t;
  network : Wire.t Network.t;
  obs : Obs.t;
  profile : Profile.t; (* shared crypto cost profiler, one per cluster *)
  rng : Rng.t;
  genesis : Genesis.t;
  app : App.t;
  params : Replica.params;
  persist : Iaccf_storage.Store.config option;
      (* base config; each replica persists under [dir]/replica-<id> *)
  members : member_identity list;
  mutable replicas : (int * Replica.t) list;
  mutable next_client_addr : int;
  client_table : (string, int) Hashtbl.t; (* client pk bytes -> address *)
}

let replica_store ?obs persist id =
  Option.map
    (fun (cfg : Iaccf_storage.Store.config) ->
      Iaccf_storage.Store.open_store ?obs ~owner:id
        {
          cfg with
          Iaccf_storage.Store.dir =
            Filename.concat cfg.Iaccf_storage.Store.dir
              (Printf.sprintf "replica-%d" id);
        })
    persist

let replica_seed seed id = Printf.sprintf "cluster-%d-replica-%d" seed id
let replica_keys seed id = Schnorr.keypair_of_seed (replica_seed seed id)

let endorse (members : member_identity list) cfg =
  let replicas =
    List.map
      (fun (r : Config.replica_info) ->
        let m = List.find (fun m -> m.mi_name = r.Config.operator) members in
        let payload =
          Config.endorsement_payload cfg ~replica_id:r.Config.replica_id
            ~pk:r.Config.replica_pk
        in
        { r with Config.endorsement = Schnorr.sign m.mi_sk (D.to_raw payload) })
      cfg.Config.replicas
  in
  { cfg with Config.replicas }

let build_config ~seed ~members ~replica_ids ~config_no =
  let n_members = List.length members in
  let replicas =
    List.mapi
      (fun i id ->
        let _, pk = replica_keys seed id in
        let operator = (List.nth members (i mod n_members)).mi_name in
        {
          Config.replica_id = id;
          operator;
          replica_pk = pk;
          endorsement = "";
        })
      replica_ids
  in
  let cfg =
    {
      Config.config_no;
      members =
        List.map
          (fun m -> { Config.member_name = m.mi_name; member_pk = m.mi_pk })
          members;
      replicas;
      vote_threshold = (n_members / 2) + 1;
    }
  in
  endorse members cfg

(* Standalone identity derivation: a multi-process fleet can't share a
   Cluster.t, but every process holding the same (seed, n, n_members) can
   derive the identical members, genesis, and replica keys locally — the
   manifest pins those three numbers and nothing else. *)

let standalone_members ~seed ~n_members =
  List.init n_members (fun i ->
      let name = Printf.sprintf "member-%d" i in
      let sk, pk =
        Schnorr.keypair_of_seed (Printf.sprintf "cluster-%d-%s" seed name)
      in
      { mi_name = name; mi_sk = sk; mi_pk = pk })

let standalone_genesis ?n_members ~seed ~n () =
  let n_members = Option.value n_members ~default:n in
  let members = standalone_members ~seed ~n_members in
  let cfg0 =
    build_config ~seed ~members ~replica_ids:(List.init n Fun.id) ~config_no:0
  in
  (match Config.validate cfg0 with
  | Ok () -> ()
  | Error e -> invalid_arg ("Cluster.standalone_genesis: " ^ e));
  Genesis.make cfg0

let standalone_replica_sk ~seed ~id = fst (replica_keys seed id)

let counter_app_procs =
  [
    ( "counter/add",
      fun (ctx : App.context) args ->
        let delta = try int_of_string args with _ -> 0 in
        let cur =
          match Iaccf_kv.Store.get ctx.App.tx "counter" with
          | Some v -> ( try int_of_string v with _ -> 0)
          | None -> 0
        in
        Iaccf_kv.Store.put ctx.App.tx "counter" (string_of_int (cur + delta));
        Ok (string_of_int (cur + delta)) );
    ("noop", fun _ _ -> Ok "");
  ]

let make ?(seed = 1) ?n_members ?(params = Replica.default_params)
    ?(latency = Latency.dedicated_cluster) ?app ?persist ?obs ?profile ~n () =
  let n_members = Option.value n_members ~default:n in
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  let profile = match profile with Some p -> p | None -> Profile.disabled in
  let rng = Rng.create seed in
  let members = standalone_members ~seed ~n_members in
  let cfg0 =
    build_config ~seed ~members ~replica_ids:(List.init n Fun.id) ~config_no:0
  in
  (match Config.validate cfg0 with
  | Ok () -> ()
  | Error e -> invalid_arg ("Cluster.make: " ^ e));
  let genesis = Genesis.make cfg0 in
  let sched = Sched.create () in
  Obs.set_clock obs (fun () -> Sched.now sched);
  let network =
    Network.create ~sched ~latency:(latency (Rng.split rng))
      ~drop_rng:(Rng.split rng) ~obs ()
  in
  (* The sim layer cannot see the wire format; inject the classifier here
     so delivered messages emit cross-node flow events when tracing. *)
  Network.set_flow_classifier network Wire.flow_of;
  let app =
    match app with
    | Some a -> a
    | None -> App.create counter_app_procs
  in
  let t =
    {
      seed;
      sched;
      network;
      obs;
      profile;
      rng;
      genesis;
      app;
      params;
      persist;
      members;
      replicas = [];
      next_client_addr = client_base;
      client_table = Hashtbl.create 8;
    }
  in
  let client_address pk =
    Hashtbl.find_opt t.client_table (Schnorr.public_key_to_bytes pk)
  in
  let replicas =
    List.init n (fun id ->
        let sk, _ = replica_keys seed id in
        let r =
          Replica.create ~id ~sk ~genesis ~app ~params ~sched ~network
            ~client_address ~rng:(Rng.split rng) ~obs ~profile
            ?storage:(replica_store ~obs persist id) ()
        in
        Replica.start r;
        (id, r))
  in
  t.replicas <- replicas;
  t

let sched t = t.sched
let network t = t.network
let obs t = t.obs
let genesis t = t.genesis
let replicas t = List.map snd t.replicas
let replica t id = List.assoc id t.replicas
let members t = t.members
let params t = t.params
let app t = t.app
let fork_rng t = Rng.split t.rng
let replica_sk t id = fst (replica_keys t.seed id)
let storage t id = Replica.storage (replica t id)

let iter_storage t f =
  List.iter
    (fun (_, r) ->
      match Replica.storage r with Some s -> f s | None -> ())
    t.replicas

let sync_storage t = iter_storage t Iaccf_storage.Store.sync
let close_storage t = iter_storage t Iaccf_storage.Store.close
let crash_storage t = iter_storage t Iaccf_storage.Store.crash

(* Lightweight endpoints (the load generator's session table) register one
   shared network address and bind each session key to it lazily, instead
   of materializing a Client per identity. *)
let reserve_address t =
  let address = t.next_client_addr in
  t.next_client_addr <- t.next_client_addr + 1;
  address

let bind_client_pk t pk ~addr =
  Hashtbl.replace t.client_table (Schnorr.public_key_to_bytes pk) addr

let add_client t ?(verify_receipts = true) ?(sign_requests = true) () =
  let address = t.next_client_addr in
  t.next_client_addr <- t.next_client_addr + 1;
  let c =
    Client.create ~address
      ~seed:(Printf.sprintf "cluster-%d-client-%d" t.seed address)
      ~genesis:t.genesis ~pipeline:t.params.Replica.pipeline ~sched:t.sched
      ~network:t.network ~verify_receipts ~sign_requests ~obs:t.obs ()
  in
  Hashtbl.replace t.client_table
    (Schnorr.public_key_to_bytes (Client.public_key c))
    address;
  c

let add_member_client t (m : member_identity) =
  let address = t.next_client_addr in
  t.next_client_addr <- t.next_client_addr + 1;
  let c =
    Client.create ~address
      ~seed:(Printf.sprintf "cluster-%d-%s" t.seed m.mi_name)
      ~genesis:t.genesis ~pipeline:t.params.Replica.pipeline ~sched:t.sched
      ~network:t.network ~obs:t.obs ()
  in
  assert (Iaccf_crypto.Schnorr.public_key_equal (Client.public_key c) m.mi_pk);
  Hashtbl.replace t.client_table
    (Iaccf_crypto.Schnorr.public_key_to_bytes (Client.public_key c))
    address;
  c

let run t ~ms = Sched.run ~until:(Sched.now t.sched +. ms) t.sched

let run_until t ?(timeout_ms = 60_000.0) pred =
  let deadline = Sched.now t.sched +. timeout_ms in
  let rec go () =
    if pred () then true
    else if Sched.now t.sched > deadline then false
    else if Sched.step t.sched then go ()
    else pred ()
  in
  go ()

let make_next_config t ?(add_replicas = []) ?(remove_replicas = []) ~base () =
  let ids =
    List.filter
      (fun (r : Config.replica_info) ->
        not (List.mem r.Config.replica_id remove_replicas))
      base.Config.replicas
    |> List.map (fun r -> r.Config.replica_id)
  in
  let ids = ids @ add_replicas in
  build_config ~seed:t.seed ~members:t.members ~replica_ids:ids
    ~config_no:(base.Config.config_no + 1)

let spawn_replica t ~id =
  let sk, _ = replica_keys t.seed id in
  let client_address pk =
    Hashtbl.find_opt t.client_table (Schnorr.public_key_to_bytes pk)
  in
  let r =
    Replica.create ~id ~sk ~genesis:t.genesis ~app:t.app ~params:t.params
      ~sched:t.sched ~network:t.network ~client_address ~rng:(Rng.split t.rng)
      ~obs:t.obs ~profile:t.profile
      ?storage:(replica_store ~obs:t.obs t.persist id) ()
  in
  Replica.start r;
  t.replicas <- t.replicas @ [ (id, r) ];
  r
