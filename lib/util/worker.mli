(** One process-wide background worker: a single domain that runs jobs
    one at a time in submission order. A {!submit} starts it when it is
    not running, and it ends once no job has come for 50 ms, so a program
    that has stopped submitting runs on one domain again.

    It takes work off a replica's event loop that nothing reads until
    later: a durable store's interval sync and a checkpoint's digest. A
    domain, not a systhread, so CPU work runs beside the caller instead of
    taking turns with it under the runtime lock. A job runs on another
    domain: it must only touch values that nothing mutates until it is
    awaited, and must not submit or await itself. Jobs still queued when
    the program exits finish first. *)

type 'a pending
(** A job's result, once it has run. *)

val submit : (unit -> 'a) -> 'a pending
(** Queue a job behind every job submitted before it. *)

val await : 'a pending -> 'a
(** Wait for the job; return its result or re-raise its exception (with
    its backtrace). Every job submitted before it has finished too. Can
    be called any number of times. *)

val ready : 'a -> 'a pending
(** A result that needs no job. *)

val drain : unit -> unit
(** Wait until every job submitted so far has finished. *)
