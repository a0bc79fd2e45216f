(** Unified observability: metrics registry + structured protocol trace.

    One [Obs.t] is threaded through a deployment (replicas, clients,
    network, storage). It owns three kinds of state:

    - {b Counters and gauges} — always on. A counter is a mutable cell
      obtained once by name; bumping it costs one store, the same as the
      ad-hoc tallies it replaces, so components can count unconditionally.
    - {b Histograms and marks} — on when the registry was created with
      [~metrics:true]. Histograms keep fixed bucket counts {e and} the raw
      samples, so percentiles are exact (nearest-rank), not interpolated
      from bucket boundaries.
    - {b Trace events} — on when created with [~tracing:true]. Events are
      begin/end/instant records stamped with the registry's clock (the
      simulator's virtual clock, not wall time), exportable as JSONL or as
      Chrome [trace_event] JSON loadable in chrome://tracing / Perfetto.

    A passive registry ([Obs.passive ()]) counts but records nothing else:
    every histogram/trace entry point returns after one boolean test, so
    instrumented hot paths cost nothing measurable when observability is
    off. Registries are instance-scoped — two clusters with their own
    registries never share a cell.

    The metrics snapshot is a deterministic, sorted [key value] listing
    with no wall-clock fields, so a fixed seed yields byte-identical
    output (asserted by a golden test). *)

type t

type counter
type gauge

(** {1 Registry} *)

val create : ?metrics:bool -> ?tracing:bool -> ?clock:(unit -> float) -> unit -> t
(** [create ()] records everything ([metrics] and [tracing] default to
    [true]). The [clock] (default: constantly [0.]) should be the virtual
    clock of the simulation; {!set_clock} can install it later, once the
    scheduler exists. *)

val passive : unit -> t
(** A fresh counting-only registry: counters and gauges work, histograms,
    marks and traces are no-ops. The default for every instrumented
    component, so uninstrumented callers keep their accessors working. *)

val tracing_enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Install the time source (e.g. [fun () -> Sched.now sched]).
    [Cluster.make] does this on whatever registry it is given. *)

val now : t -> float

(** {1 Counters and gauges (always on)} *)

val counter : t -> string -> counter
(** Get or create the counter registered under [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val counter_value : t -> string -> int
(** [0] if no such counter has been created. *)

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit

val gauge_max : gauge -> float
(** High-watermark: the largest value ever set on the gauge (0. if never
    set). Deterministic for a fixed seed, so benches may gate on it (e.g.
    peak admission-queue depth); not part of {!snapshot}. *)

val gauge_max_value : t -> string -> float
(** [0.] if no such gauge has been created. *)

(** {1 Histograms} *)

module Histogram : sig
  type h

  val create : ?buckets:float array -> ?cap:int -> ?active:bool -> unit -> h
  (** A standalone histogram (always active unless [~active:false]);
      registry histograms come from {!Obs.histogram} instead. [buckets]
      must be strictly increasing upper bounds; an implicit +inf bucket
      catches the rest. [cap] bounds retained raw samples (default
      {!default_cap}); beyond it, reservoir sampling (Algorithm R with a
      private deterministic generator) keeps a uniform sample, so
      percentiles are approximate but memory is constant. *)

  val observe : h -> float -> unit

  val count : h -> int
  (** Total observations, including ones no longer retained. *)

  val retained : h -> int
  (** Raw samples currently held ([min count cap]). *)

  val sum : h -> float
  val min_value : h -> float
  (** [0.] when empty. *)

  val max_value : h -> float
  (** [0.] when empty. *)

  val percentile : h -> float -> float
  (** Exact nearest-rank percentile from the recorded samples:
      [percentile h p] with [0 < p <= 1] is the sample of rank
      [ceil (p * count)] (1-based) in sorted order; [p <= 0] gives the
      minimum, and an empty histogram gives [0.]. So [percentile h 1.0] is
      the maximum — never an out-of-range index. *)

  val percentile_of_list : float -> float list -> float
  (** Same nearest-rank semantics over a plain list (bench compatibility). *)

  val buckets : h -> (float * int) array
  (** Cumulative bucket counts [(upper_bound, count_le_bound)], ending with
      [(infinity, count)]. *)
end

val histogram : t -> ?buckets:float array -> ?cap:int -> string -> Histogram.h
(** Get or create the named histogram. On a registry without metrics the
    returned histogram is inactive: [observe] is a no-op and every reader
    returns zero. Re-requesting a name returns the same histogram;
    [buckets] only applies to the first creation. *)

(** {1 Marks}

    Named first-write timestamps, for latencies whose two endpoints live in
    different components (e.g. a replica marks the commit of batch [s]; the
    client later measures commit-to-receipt). No-ops without metrics. *)

val mark : t -> string -> unit
(** Record [now] under the key, unless the key is already marked (the
    first writer — e.g. the first replica to commit — wins). *)

val mark_lookup : t -> string -> float option

(** {1 Trace events} *)

type phase = Span_begin | Span_end | Instant | Flow_start | Flow_finish

type event = {
  ev_ts : float;  (** virtual milliseconds *)
  ev_ph : phase;
  ev_cat : string;
  ev_name : string;
  ev_node : int;  (** emitting node (replica id / client address) *)
  ev_id : string;  (** async-span correlation id; [""] for instants *)
  ev_args : (string * string) list;
}

val span_begin :
  t -> node:int -> cat:string -> name:string -> id:string ->
  ?args:(string * string) list -> unit -> unit

val span_end :
  t -> node:int -> cat:string -> name:string -> id:string ->
  ?args:(string * string) list -> unit -> unit

val instant :
  t -> node:int -> cat:string -> name:string -> ?id:string ->
  ?args:(string * string) list -> unit -> unit

val flow_start :
  t -> node:int -> cat:string -> name:string -> id:string ->
  ?args:(string * string) list -> unit -> unit
(** Start (or continue) the cross-node causal flow [(cat, name, id)] at the
    sending node. In the Chrome export this becomes a ["ph":"s"] flow
    event; Perfetto draws an arrow to the matching {!flow_finish}. *)

val flow_finish :
  t -> node:int -> cat:string -> name:string -> id:string ->
  ?args:(string * string) list -> unit -> unit
(** Finish one hop of a flow at the receiving node (["ph":"f"] with
    ["bp":"e"], binding to the enclosing slice). *)

val set_node_name : t -> int -> string -> unit
(** Label a node id for the Chrome export ("replica-0", "client-100"). *)

val events : t -> event list
(** In emission order. *)

val event_count : t -> int

(** {1 Export} *)

val snapshot : t -> (string * string) list
(** Sorted [key, rendered-value] pairs: every counter, gauge, and (when
    metrics are on) histogram — count, mean, min, max, p50/p90/p99 and the
    cumulative bucket counts. Deterministic: sorted keys, values derived
    only from recorded data and the virtual clock. *)

val snapshot_string : t -> string
(** One ["key value\n"] line per {!snapshot} pair. *)

val write_metrics : t -> string -> unit
(** Write {!snapshot_string} to a file. *)

val parse_snapshot : string -> (string * string) list
(** Parse {!snapshot_string} output back into pairs.
    @raise Failure on a malformed line. *)

val write_trace_file : t -> string -> unit
(** Write the trace to a file: JSONL if the name ends in [.jsonl],
    Chrome trace_event JSON otherwise. *)
