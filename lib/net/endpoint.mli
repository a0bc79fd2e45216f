(** Socket endpoint: a [Unix.select]-based event loop owning one
    process's listen socket, outbound connections to manifest peers
    (dialled with exponential-backoff retry), and accepted connections.

    All sockets are nonblocking; frames go through the incremental
    {!Framing} decoder on the way in and per-connection queues with
    short-write handling on the way out. Frames addressed to a peer whose
    connection is down (or that die with a connection) are dropped and
    counted as [net.dropped.peer_down] — the protocol layer owns
    retransmission, the transport never blocks on a dead peer. A
    connection that produces undecodable bytes is dropped and counted as
    [net.dropped.garbage].

    Observability (all in the registry passed to {!create}):
    [net.sock.bytes_in/out], [net.sock.frames_in/out],
    [net.sock.accepted], [net.sock.connect_retries],
    [net.dropped.peer_down/no_route/garbage], and a per-peer
    [net.sock.queue.<id>] depth gauge. *)

type t

type conn
(** An individual connection (opaque; used to learn return routes). *)

val create :
  ?obs:Iaccf_obs.Obs.t ->
  ?listen:Addr.t ->
  unit ->
  t
(** [listen] binds and listens immediately. Each connection queues at
    most 8,192 outbound frames; a frame past that is dropped and counted
    as [net.dropped.queue_full]. Installs a SIGPIPE-ignore handler. *)

val add_peer : t -> id:int -> Addr.t -> unit
(** Declare a manifest peer this endpoint dials actively. *)

val set_on_frame : t -> (conn -> string -> unit) -> unit
(** Called for every decoded inbound frame payload. *)

val send : t -> dst:int -> string -> unit
(** Frame and queue a payload for [dst]: a manifest peer (dialling if
    needed) or a learned route; otherwise dropped as [no_route]. *)

val learn_route : t -> src:int -> conn -> unit
(** Record that address [src] is reachable over [conn] (the transport
    calls this with each inbound envelope's source). *)

val poll : t -> timeout_ms:float -> unit
(** One event-loop turn: dial due peers, select, accept, read, write. *)

val drain : t -> timeout_ms:float -> unit
(** Poll until all queued output is flushed or the timeout elapses. *)

val close : t -> unit
