(** Simulated message-passing network.

    Delivers opaque ['msg] values between registered nodes with modelled
    latency, optional drops, and partitions. Channels are authenticated in
    the real system (§3.4); here the simulator itself guarantees the [src]
    it reports, and Byzantine behaviour is modelled at the node level by
    sending protocol messages with forged *contents* (signatures still fail
    unless the key is held). An outbound intercept lets a fault harness
    script such behaviour for a node without touching the node's code. *)

type 'msg t

val create :
  sched:Sched.t ->
  latency:Latency.t ->
  ?drop_rng:Iaccf_util.Rng.t ->
  ?obs:Iaccf_obs.Obs.t ->
  unit ->
  'msg t
(** With [obs], message tallies land in that registry ([net.sent],
    [net.delivered], [net.dropped.cut/cut_oneway/prob/unregistered/
    intercepted]) and, when tracing is enabled, every send and drop emits a
    trace event (drops carry their cause). Without it the network keeps a
    private counting-only registry, so the accessors below always work. *)

val set_flow_classifier : 'msg t -> ('msg -> (string * string) option) -> unit
(** Install the causal-flow classifier: maps a message to its
    [(flow name, flow id)], or [None] for untraced traffic. Injected by
    the layer that knows the message type (the sim layer cannot depend on
    the wire format). When set and tracing is enabled, each delivered
    message emits a flow-start at the sender and a matching flow-finish at
    the receiver (a delivery to an unregistered handler finishes with a
    [cancelled] marker); dropped messages emit neither. *)

val register :
  ?arrival:(src:int -> 'msg -> unit) -> 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** Attach a node's message handler. Re-registering replaces the handler
    and the arrival hook (none if [arrival] is absent).

    [arrival] is told of each message for the node when a {!send} that
    passes the cut and loss draws schedules its delivery. It runs on the
    sender's turn in the event loop, a latency ahead of the handler, and
    never for a message that is cut, lost or withheld by an intercept. It
    lets the node start work that only the message decides (the replica
    prechecks a request's client signature); it must not change anything
    the handler's outcome depends on. An {!inject} does not call it: the
    delivery it schedules is due at once, so work started then would
    rarely be done before the handler asks for it (on the four-process
    socket bench it cost about 40% of the fleet's throughput). *)

val unregister : 'msg t -> int -> unit
(** Remove the node's handler and its arrival hook. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Queue delivery; dropped silently if [dst] is unregistered, partitioned
    from [src], or hit by the drop probability. *)

val broadcast : 'msg t -> src:int -> dsts:int list -> 'msg -> unit

(** {1 Socket gateway (multi-process backend)}

    The socket transport plugs in here: a send whose destination is not
    locally registered is handed to the gateway (counted as
    [net.gateway.out]) instead of entering the latency/drop model, and
    frames read off a socket come back in through {!inject} (counted as
    [net.gateway.in]). With no gateway set — every pure-simulation run —
    the send path is exactly what it was before this hook existed, so
    deterministic runs stay byte-identical. *)

val set_gateway : 'msg t -> (src:int -> dst:int -> 'msg -> unit) -> unit
(** Divert sends to unregistered destinations into the given callback
    (the socket backend's transmit path) instead of dropping them. *)

val inject : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Deliver a message that arrived from another process: scheduled at the
    current instant so the handler runs inside the event loop like any
    local delivery ([net.dropped.unregistered] if the destination is
    absent, like a late local delivery would be). *)

(** {1 Outbound interception (Byzantine wrappers)}

    A scripted fault harness can rewrite a node's outbound message stream:
    the intercept sees each [(dst, msg)] the node sends and returns the
    list of [(dst, msg)] transmissions that actually enter the network —
    [[]] withholds the message, [[(dst, msg)]] passes it through,
    a replacement tampers it, and multiple entries equivocate. Each
    returned transmission is then subject to the ordinary latency, cut,
    and loss model (and counted in [messages_sent]); a withheld message is
    counted as one send dropped as [intercepted], so drop accounting stays
    conservative. Intercepted nodes cannot forge [src]: every transmission
    still carries the intercepted node's own address. *)

val set_intercept : 'msg t -> int -> (dst:int -> 'msg -> (int * 'msg) list) -> unit
(** Install (or replace) the outbound intercept for a source node. *)

val clear_intercept : 'msg t -> int -> unit

val set_drop_probability : 'msg t -> float -> unit
(** Uniform drop probability in [0,1]; requires [drop_rng]. *)

val partition : 'msg t -> int list -> int list -> unit
(** Cut links between the two groups (both directions). *)

val partition_oneway : 'msg t -> int list -> int list -> unit
(** Cut only the [srcs -> dsts] direction: sources still hear the
    destinations, the destinations never hear the sources (asymmetric-view
    scenarios). *)

val heal_pair : 'msg t -> int -> int -> unit
(** Remove every cut — two-way or directed, either orientation — between
    one pair of nodes, leaving all other cuts in place. *)

val heal : 'msg t -> unit
(** Remove all partitions, two-way and directed. *)

val messages_sent : 'msg t -> int
val messages_delivered : 'msg t -> int

(** {1 Drop accounting}

    Fault-injection experiments report loss rates from these: every sent
    message is eventually counted as delivered or as exactly one kind of
    drop (a message in flight is neither yet). A message an intercept
    expands into several transmissions counts one send per transmission. *)

val messages_dropped : 'msg t -> int
(** Total drops: severed links (two-way and directed) + probabilistic loss
    + unregistered destinations + intercept withholding. *)

val messages_dropped_cut : 'msg t -> int
(** Dropped because the link was cut by {!partition}. *)

val messages_dropped_cut_oneway : 'msg t -> int
(** Dropped because the direction was cut by {!partition_oneway}. *)

val messages_dropped_prob : 'msg t -> int
(** Dropped by the {!set_drop_probability} loss draw. *)

val messages_dropped_unregistered : 'msg t -> int
(** Arrived for a destination with no registered handler. *)

val messages_dropped_intercepted : 'msg t -> int
(** Withheld by an outbound intercept (the [[]] verdict). *)

val drop_rate : 'msg t -> float
(** [messages_dropped / messages_sent]; 0 before any send. *)
