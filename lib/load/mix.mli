(** Operation mixes: what each generated arrival actually asks the
    service to do. A mix is a deterministic stream of [(proc, args)]
    pairs drawn from its own RNG. *)

type t

val next : t -> string * string
(** The next operation's procedure name and arguments. *)

val noop : t
(** Every arrival is a [noop] — pure protocol load with a trivially
    linearizable history (the chaos oracle's lincheck stays closed). *)

val smallbank :
  rng:Iaccf_util.Rng.t -> accounts:int -> ?theta:float -> unit -> t
(** The SmallBank 5-way mix with Zipfian account skew (default [theta]
    0.99; 0 recovers the uniform picks of the closed-loop benches).
    Accounts are ranked by id, so account 0 is the hottest key. *)
