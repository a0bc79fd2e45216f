(** Growable arrays (OCaml 5.1 lacks [Dynarray]).

    Supports O(1) amortized [push], O(1) random access, and truncation,
    which the ledger and Merkle tree use for roll-back. *)

type 'a t

val create : unit -> 'a t
val init : int -> (int -> 'a) -> 'a t (* capacity exactly [n] *)
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val last : 'a t -> 'a option

val truncate : 'a t -> int -> unit
(** [truncate v n] drops all elements at indices [>= n]. No-op if
    [n >= length v]. @raise Invalid_argument if [n < 0]. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val sub_list : 'a t -> int -> int -> 'a list
(** [sub_list v pos len] is the [len] elements starting at [pos] as a list. *)

val copy : 'a t -> 'a t
