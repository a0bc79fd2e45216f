(** Zipfian rank sampler for key skew.

    Rank [i] (0-based) is drawn with probability proportional to
    [1 / (i+1)^theta]; [theta = 0] degenerates to uniform. The sampler
    precomputes the normalized cumulative distribution once (O(n) floats)
    and answers each draw with a binary search, so skewing a workload over
    hundreds of thousands of keys costs O(log n) per operation. *)

type t

val create : ?theta:float -> n:int -> unit -> t
(** [n] ranks, default [theta] 0.99 (the YCSB constant).
    @raise Invalid_argument if [n <= 0] or [theta < 0]. *)

val sample : t -> Iaccf_util.Rng.t -> int
(** A rank in [\[0, n)]; lower ranks are hotter for [theta > 0]. *)

val weight : t -> int -> float
(** The probability mass of a rank — strictly decreasing in rank when
    [theta > 0] (the property the QCheck tests pin down). *)
