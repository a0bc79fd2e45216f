(** The scenario catalog.

    Three suites:
    - {b core} — crash/restart, primary failure, two-way and one-way
      partitions, and a message-loss ramp: the protocol must mask them
      all. Two overload cells drive open-loop traffic (lib/load) past the
      admission-control knee while a loss ramp or a primary crash lands
      mid-burst: the oracle must stay clean, the queue must shed with
      Busy rejections, and the generator's accounting must close
      (offered = committed once drained — nothing silently dropped).
    - {b byzantine} — below threshold, one scripted replica equivocates,
      tampers results, withholds nonces, or sends corrupt view changes
      (masked); above threshold, a colluding quorum forges wrong execution,
      history rewrites, view-change erasure, tied receipts, and a
      governance fork (each must yield an enforcer-verified uPoM blaming
      only culprits); and two observer faults — a frozen observer serving
      stale state and an observer forging read/status answers — both
      caught by the reader's receipt verification and freshness floor,
      with the consensus tier untouched.
    - {b recovery} — durable-store lifecycles: clean cold restarts, a
      mid-run storage crash, snapshot-based cold starts, and ledger
      compaction followed by a stale replica's snapshot catch-up; after
      each the service must stay live, auditable, and linearizable. *)

val all : Scenario.t list

val suite : Scenario.suite -> Scenario.t list

val smoke : Scenario.t list
(** One scenario per suite, for the default test run. *)

val find : string -> Scenario.t option
