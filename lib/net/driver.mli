(** Socket-side load driver: unmodified simulator clients in this
    process, reaching a real fleet through an endpoint. Receipt
    verification and latency measurement are the clients' own; the
    numbers are end-to-end wall-clock through real sockets. *)

type harness

val connect :
  ?obs:Iaccf_obs.Obs.t ->
  ?clients:int ->
  ?verify_receipts:bool ->
  Manifest.t ->
  harness
(** Dial every manifest replica and build [clients] (default 4) signing
    clients with deterministic per-manifest-seed keys. *)

val step : harness -> unit
(** One event-loop turn (advance virtual clock to wall, poll sockets). *)

val run_until : ?timeout_ms:float -> harness -> (unit -> bool) -> bool
(** Step until the predicate holds; [false] on timeout (default 120 s). *)

val close : harness -> unit

val obs : harness -> Iaccf_obs.Obs.t
(** The driver-side metrics registry (socket + client counters). *)

val clients : harness -> Iaccf_core.Client.t array
(** The signing clients, for callers that drive their own workload. *)

type result = {
  r_total : int;
  r_completed : int;
  r_setup : int;  (** setup transactions (excluded from [r_wall_s]) *)
  r_setup_s : float;  (** set-up phase wall seconds: submitting the setup
                          transactions until the last one completes *)
  r_wall_s : float;  (** measured-phase wall seconds *)
  r_tx_s : float;
  r_latencies_ms : float list;
      (** one per timed transaction, oldest first per client; the
          set-up transactions' are left out *)
}

val run_smallbank :
  ?concurrency:int ->
  ?accounts:int ->
  ?setup_timeout_ms:float ->
  ?timeout_ms:float ->
  total:int ->
  harness ->
  seed:int ->
  unit ->
  (result, string) Stdlib.result
(** Create the accounts (off the clock), then drive [total] SmallBank
    transactions closed-loop at [concurrency] across all clients; the op
    stream is drawn deterministically from [seed] in submission order.
    [Error] describes a stall (setup or load) on timeout. *)
