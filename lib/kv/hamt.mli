(** Persistent hash-array-mapped trie from string keys to string values.

    Stands in for CCF's CHAMP map [58]: immutable (a snapshot is the value
    itself, so undoing a batch is putting back the map it started from),
    with 32-way branching and log32-time access. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val find : string -> t -> string option
val add : string -> string -> t -> t
val remove : string -> t -> t

val fold_sorted : (string -> string -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** Fold in ascending key order: the canonical order used for checkpoint
    digests, so all replicas hash identical state identically. *)

val to_sorted_list : t -> (string * string) list
val of_list : (string * string) list -> t
val equal : t -> t -> bool
