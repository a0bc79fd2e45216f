(** Pompē [67] cost model (Tab. 3 context row).

    Pompē separates request ordering from consensus: replicas assign signed
    timestamps to commands (one round), the sequencer aggregates 2f+1
    timestamp signatures, and consensus then agrees on already-ordered
    batches — removing the ordering work from the critical consensus path
    at the price of extra round trips (73 ms vs IA-CCF's 12 ms in §6.8).

    This module reproduces the crypto work per command analytically: it
    performs the same number of real signature operations per command as
    Pompē's fast path and reports achievable throughput for a given batch
    size, which is how the Tab. 3 row is regenerated. *)

type result = {
  r_commands : int;
  r_elapsed_s : float;
  r_throughput : float;  (** commands per second of real compute *)
  r_signatures : int;
}

val run : n:int -> commands:int -> batch:int -> result
(** Perform the per-command ordering signatures (2f+1 timestamp signatures
    and their verifications, amortized consensus signatures per batch) for
    [commands] empty commands on real crypto, and measure. *)
