(** Open-loop traffic generator for a simulated IA-CCF cluster.

    One generator registers a single network endpoint and multiplexes a
    {!Session} table over it: each arrival (paced by an {!Arrival}
    process on the virtual clock) picks a session, signs one request from
    the {!Mix}, and broadcasts it to every replica — exactly the wire
    traffic of a real client, minus the per-client bookkeeping. The
    request stays pending until the designated replica's receipt
    ([Replyx]) comes back; a sweep timer rebroadcasts stale pending
    requests over the ordinary retransmit path, which is also how
    admission-control [Busy] rejections are retried (rejections are
    counted, never silently dropped).

    Accounting invariant: [offered = committed + outstanding] at all
    times — every arrival is either completed or still pending/retrying.
    All state advances on the virtual clock from seeded RNG streams, so
    a run is deterministic for a fixed seed. *)

type t

type stats = {
  ls_offered : int;  (** arrivals generated *)
  ls_submitted : int;  (** first transmissions (= offered) *)
  ls_committed : int;  (** receipts received *)
  ls_rejected : int;  (** Busy rejections observed (may exceed requests) *)
  ls_retries : int;  (** rebroadcasts by the sweep timer *)
  ls_outstanding : int;  (** pending at snapshot time *)
  ls_latencies_ms : float list;  (** per-commit submit-to-receipt, virtual *)
  ls_sessions_used : int;
  ls_derived_keys : int;
}

val create :
  cluster:Iaccf_core.Cluster.t ->
  ?sessions:int ->
  ?key_cache:int ->
  ?seed:int ->
  ?mix:Mix.t ->
  ?retry_ms:float ->
  arrival:Arrival.shape ->
  unit ->
  t
(** Reserves a client address on the cluster and registers its handler.
    [sessions] (default 1024) identities; [seed] (default 7) names the
    generator's RNG and session key streams; [mix] defaults to
    {!Mix.noop}; [retry_ms] (default 300) is the sweep period and the
    retry backoff after a Busy rejection. *)

val start : t -> duration_ms:float -> unit
(** Schedule arrivals from now until [duration_ms] from now. The caller
    still drives the scheduler ({!Iaccf_core.Cluster.run} /
    {!drain}). May be called again after a previous window closed (e.g.
    a second burst). *)

val drain : t -> ?timeout_ms:float -> unit -> bool
(** Run the cluster until every offered request has completed (arrivals
    exhausted and nothing outstanding); [false] on timeout. *)

val stats : t -> stats
val address : t -> int
