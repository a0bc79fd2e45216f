module Rng = Iaccf_util.Rng
module Obs = Iaccf_obs.Obs

type 'msg t = {
  sched : Sched.t;
  latency : Latency.t;
  drop_rng : Rng.t option;
  obs : Obs.t;
  handlers : (int, src:int -> 'msg -> unit) Hashtbl.t;
  (* Outbound interception (Byzantine wrappers): rewrites a source's
     message stream at the network boundary, below the latency/drop model. *)
  intercepts : (int, dst:int -> 'msg -> (int * 'msg) list) Hashtbl.t;
  mutable drop_probability : float;
  (* Causal-flow classifier, injected by the layer that knows the message
     type (the sim layer cannot depend on the wire format): maps a message
     to a (flow name, flow id) pair, or None for untraced traffic. When
     set and tracing is on, every delivered message emits a Flow_start at
     the sender and a matching Flow_finish at the receiver, so request
     paths link across nodes in the Chrome trace. Dropped messages emit
     neither; a delivery to an unregistered handler finishes the flow
     with a cancelled marker — starts and finishes always pair up. *)
  mutable flow_of : ('msg -> (string * string) option) option;
  (* Socket-backend escape hatch: when set, a send whose destination has
     no local handler is handed to the gateway instead of entering the
     latency/drop model — the gateway serializes it onto a socket and a
     remote process's network [inject]s it there. Unset (every pure-sim
     run), the send path is byte-identical to before the hook existed:
     the branch tests only [None]. *)
  mutable gateway : (src:int -> dst:int -> 'msg -> unit) option;
  mutable cuts : (int * int) list; (* unordered pairs with severed links *)
  mutable oneway_cuts : (int * int) list; (* directed (src, dst) cuts *)
  (* Tallies live in the obs registry (instance-scoped); the accessors
     below read them back so callers see the same counts as before. *)
  c_sent : Obs.counter;
  c_delivered : Obs.counter;
  c_dropped_cut : Obs.counter; (* dropped on a severed (two-way) link *)
  c_dropped_cut_oneway : Obs.counter; (* dropped on a directed cut *)
  c_dropped_prob : Obs.counter; (* dropped by the loss probability *)
  c_dropped_unregistered : Obs.counter; (* arrived for an absent handler *)
  c_dropped_intercepted : Obs.counter; (* withheld by an outbound intercept *)
  c_gateway_out : Obs.counter; (* handed to the socket gateway *)
  c_gateway_in : Obs.counter; (* injected from the socket gateway *)
}

let create ~sched ~latency ?drop_rng ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  {
    sched;
    latency;
    drop_rng;
    obs;
    handlers = Hashtbl.create 16;
    intercepts = Hashtbl.create 4;
    drop_probability = 0.0;
    flow_of = None;
    gateway = None;
    cuts = [];
    oneway_cuts = [];
    c_sent = Obs.counter obs "net.sent";
    c_delivered = Obs.counter obs "net.delivered";
    c_dropped_cut = Obs.counter obs "net.dropped.cut";
    c_dropped_cut_oneway = Obs.counter obs "net.dropped.cut_oneway";
    c_dropped_prob = Obs.counter obs "net.dropped.prob";
    c_dropped_unregistered = Obs.counter obs "net.dropped.unregistered";
    c_dropped_intercepted = Obs.counter obs "net.dropped.intercepted";
    c_gateway_out = Obs.counter obs "net.gateway.out";
    c_gateway_in = Obs.counter obs "net.gateway.in";
  }

let set_flow_classifier t f = t.flow_of <- Some f

let register t id handler = Hashtbl.replace t.handlers id handler
let unregister t id = Hashtbl.remove t.handlers id
let set_intercept t src f = Hashtbl.replace t.intercepts src f
let clear_intercept t src = Hashtbl.remove t.intercepts src

let cut t a b =
  List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) t.cuts

let cut_oneway t ~src ~dst =
  List.exists (fun (x, y) -> x = src && y = dst) t.oneway_cuts

(* [None] = deliver; otherwise why the message is lost. Cuts are checked
   first (two-way, then directed): a severed link drops deterministically,
   before the loss draw. *)
let drop_reason t ~src ~dst =
  if cut t src dst then Some `Cut
  else if cut_oneway t ~src ~dst then Some `Cut_oneway
  else
    match t.drop_rng with
    | Some rng when t.drop_probability > 0.0 && Rng.float rng 1.0 < t.drop_probability
      ->
        Some `Prob
    | _ -> None

let trace_drop t ~src ~dst cause =
  Obs.instant t.obs ~node:src ~cat:"net" ~name:"net.drop"
    ~args:
      [ ("cause", cause); ("src", string_of_int src); ("dst", string_of_int dst) ]
    ()

let raw_send t ~src ~dst msg =
  Obs.incr t.c_sent;
  if Obs.tracing_enabled t.obs then
    Obs.instant t.obs ~node:src ~cat:"net" ~name:"net.send"
      ~args:[ ("dst", string_of_int dst) ]
      ();
  match t.gateway with
  | Some gw when not (Hashtbl.mem t.handlers dst) ->
      (* Remote destination: hand off before the latency/drop draw — the
         wall-clock backend measures real latency, it doesn't model one. *)
      Obs.incr t.c_gateway_out;
      gw ~src ~dst msg
  | _ -> (
      match drop_reason t ~src ~dst with
  | Some `Cut ->
      Obs.incr t.c_dropped_cut;
      trace_drop t ~src ~dst "cut"
  | Some `Cut_oneway ->
      Obs.incr t.c_dropped_cut_oneway;
      trace_drop t ~src ~dst "cut-oneway"
  | Some `Prob ->
      Obs.incr t.c_dropped_prob;
      trace_drop t ~src ~dst "prob"
  | None ->
      let flow =
        if Obs.tracing_enabled t.obs then
          match t.flow_of with Some classify -> classify msg | None -> None
        else None
      in
      (match flow with
      | Some (name, id) ->
          Obs.flow_start t.obs ~node:src ~cat:"flow" ~name ~id
            ~args:[ ("dst", string_of_int dst) ]
            ()
      | None -> ());
      let delay = Latency.sample t.latency ~src ~dst in
      ignore
        (Sched.schedule t.sched ~delay (fun () ->
             match Hashtbl.find_opt t.handlers dst with
             | None ->
                 Obs.incr t.c_dropped_unregistered;
                 trace_drop t ~src ~dst "unregistered";
                 (match flow with
                 | Some (name, id) ->
                     Obs.flow_finish t.obs ~node:dst ~cat:"flow" ~name ~id
                       ~args:[ ("cancelled", "true") ]
                       ()
                 | None -> ())
             | Some handler ->
                 Obs.incr t.c_delivered;
                 (match flow with
                 | Some (name, id) ->
                     (* Arrival precedes the handler's effects in the
                        trace, so the arrow lands before the work starts. *)
                     Obs.flow_finish t.obs ~node:dst ~cat:"flow" ~name ~id
                       ~args:[ ("src", string_of_int src) ]
                       ()
                 | None -> ());
                 handler ~src msg)))

let send t ~src ~dst msg =
  match Hashtbl.find_opt t.intercepts src with
  | None -> raw_send t ~src ~dst msg
  | Some f -> (
      match f ~dst msg with
      | [] ->
          (* Withheld: the suppressed message is still accounted, so the
             sent = delivered + dropped conservation holds under wrappers. *)
          Obs.incr t.c_sent;
          Obs.incr t.c_dropped_intercepted;
          trace_drop t ~src ~dst "intercepted"
      | outs -> List.iter (fun (dst', msg') -> raw_send t ~src ~dst:dst' msg') outs)

let broadcast t ~src ~dsts msg = List.iter (fun dst -> send t ~src ~dst msg) dsts

let set_gateway t gw = t.gateway <- Some gw

(* Deliver a frame that arrived from another process. Scheduled rather
   than called directly so handler effects interleave with timers exactly
   like a local delivery would (the handler runs inside the event loop,
   never re-entrantly under a socket read). *)
let inject t ~src ~dst msg =
  Obs.incr t.c_gateway_in;
  ignore
    (Sched.schedule t.sched ~delay:0.0 (fun () ->
         match Hashtbl.find_opt t.handlers dst with
         | None ->
             Obs.incr t.c_dropped_unregistered;
             trace_drop t ~src ~dst "unregistered"
         | Some handler ->
             Obs.incr t.c_delivered;
             handler ~src msg))


let set_drop_probability t p =
  if p > 0.0 && t.drop_rng = None then
    invalid_arg "Network.set_drop_probability: no drop_rng supplied";
  t.drop_probability <- p

let partition t group1 group2 =
  List.iter (fun a -> List.iter (fun b -> t.cuts <- (a, b) :: t.cuts) group2) group1

let partition_oneway t srcs dsts =
  List.iter
    (fun a -> List.iter (fun b -> t.oneway_cuts <- (a, b) :: t.oneway_cuts) dsts)
    srcs

let heal_pair t a b =
  t.cuts <-
    List.filter (fun (x, y) -> not ((x = a && y = b) || (x = b && y = a))) t.cuts;
  t.oneway_cuts <-
    List.filter
      (fun (x, y) -> not ((x = a && y = b) || (x = b && y = a)))
      t.oneway_cuts

let heal t =
  t.cuts <- [];
  t.oneway_cuts <- []

let messages_sent t = Obs.value t.c_sent
let messages_delivered t = Obs.value t.c_delivered
let messages_dropped_cut t = Obs.value t.c_dropped_cut
let messages_dropped_cut_oneway t = Obs.value t.c_dropped_cut_oneway
let messages_dropped_prob t = Obs.value t.c_dropped_prob
let messages_dropped_unregistered t = Obs.value t.c_dropped_unregistered
let messages_dropped_intercepted t = Obs.value t.c_dropped_intercepted

let messages_dropped t =
  messages_dropped_cut t + messages_dropped_cut_oneway t + messages_dropped_prob t
  + messages_dropped_unregistered t + messages_dropped_intercepted t

let drop_rate t =
  if messages_sent t = 0 then 0.0
  else float_of_int (messages_dropped t) /. float_of_int (messages_sent t)
