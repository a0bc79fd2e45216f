(** Seed-sweep runner: scenario × seed matrices, parallel over domains.

    Each (scenario, seed) cell is fully independent — its own cluster,
    scratch directory, and metrics registry — and deterministic in the
    seed, so a failing cell is reproduced by re-running exactly that cell
    (see {!reproducer}). *)

type result = {
  r_scenario : string;
  r_suite : string;
  r_seed : int;
  r_verdict : Oracle.verdict;
  r_metrics : (string * string) list;
      (** the run's obs snapshot (deterministic, sorted) *)
  r_wall_s : float;
}

val reproducer : result -> string
(** The CLI line that re-runs exactly this cell. *)

val describe : result -> string
(** One PASS/FAIL report line with the cell's view-change total and its
    [replica.vc.cause.*] histogram; failures carry the reproducer. *)

val run_one : Scenario.t -> seed:int -> result

val default_jobs : unit -> int

val sweep :
  ?jobs:int -> scenarios:Scenario.t list -> seeds:int list -> unit -> result list
(** Run the whole matrix; results come back in matrix order (scenario-major,
    then seed) regardless of which domain ran them. *)

val failures : result list -> result list

val seed_range : string -> int list
(** Parse ["A..B"] (inclusive) or a single ["N"].
    @raise Invalid_argument or [Failure] on malformed input. *)
