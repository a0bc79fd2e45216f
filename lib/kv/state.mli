(** The key-value state: a persistent balanced map (OCaml's [Map], an AVL
    tree) from string keys to string values. Stands in for CCF's CHAMP
    map [58].

    It is immutable, so a snapshot is the value itself and undoing a batch
    is putting back the map it started from; access is log-time. Iteration
    ([iter], [fold], [bindings]) runs in ascending [String.compare] order,
    which is the canonical order of checkpoint digests and snapshots, so
    neither has to sort. *)

include Map.S with type key = string
