(** The SmallBank benchmark (§6, [2]): a bank with N customer accounts and
    five transaction types — deposit (transact_savings), withdraw
    (write_check), transfer (send_payment), balance, and amalgamate.

    Each customer has a checking and a savings account, stored under
    ["sb/c/<id>"] and ["sb/s/<id>"]. Amounts are integer cents. Procedures
    are deterministic and reject overdrafts, so replay-based auditing can
    re-check every execution. *)

val app : unit -> Iaccf_core.App.t
(** A fresh application with just the SmallBank procedures. *)

(** Argument encoding helpers (arguments are comma-separated decimal
    strings; outputs are decimal balances). *)

val create_args : account:int -> checking:int -> savings:int -> string
val deposit_args : account:int -> amount:int -> string
val withdraw_args : account:int -> amount:int -> string
val transfer_args : src:int -> dst:int -> amount:int -> string
val balance_args : account:int -> string
val amalgamate_args : src:int -> dst:int -> string

(** {1 Workload generation} *)

type op = {
  op_proc : string;
  op_args : string;
}

val setup_ops : accounts:int -> initial_balance:int -> op list
(** Creation transactions for every account. *)

val random_op : Iaccf_util.Rng.t -> accounts:int -> op
(** One random operation with the benchmark's 5-way mix. *)

val random_op_keyed :
  Iaccf_util.Rng.t -> accounts:int -> account:(unit -> int) -> op
(** [random_op] with a pluggable account sampler, so skewed key
    distributions (e.g. Zipfian, {!Iaccf_load.Zipf}) can drive the same
    5-way mix. Draw order is pinned (branch, accounts left to right,
    amount) and [rng] only feeds the branch, transfer spread, and amount
    draws; account picks come solely from [account ()]. *)
