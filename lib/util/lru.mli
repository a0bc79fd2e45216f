(** Bounded LRU cache.

    Backs the open-loop load generator's session keys ([Load.Session]):
    the hot signing identities stay derived, and the rest are derived
    again on demand. Capacity 0 disables caching entirely. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument if [capacity < 0]. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** A hit refreshes the entry's recency. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or refresh; evicts the least-recently-used entry when full. *)

val remove : ('k, 'v) t -> 'k -> unit
val clear : ('k, 'v) t -> unit

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
