(* Transaction status (CCF's GET /app/tx shape): the answer to "what
   happened to transaction ID view.seqno?". The reporting rules live in
   Status_index; the guarantee is that for any fixed ID a replica's
   answer never moves between Committed and Invalid in either direction —
   both are terminal. *)

type t = Unknown | Pending | Committed | Invalid

let to_string = function
  | Unknown -> "UNKNOWN"
  | Pending -> "PENDING"
  | Committed -> "COMMITTED"
  | Invalid -> "INVALID"

let of_string = function
  | "UNKNOWN" -> Some Unknown
  | "PENDING" -> Some Pending
  | "COMMITTED" -> Some Committed
  | "INVALID" -> Some Invalid
  | _ -> None

let equal (a : t) (b : t) = a = b

(* A status can only move along UNKNOWN -> PENDING -> {COMMITTED|INVALID};
   the two terminal states never flip into each other. PENDING -> UNKNOWN
   is also disallowed: once a replica has seen the sequence number it never
   forgets it. *)
let transition_ok ~from ~to_ =
  match (from, to_) with
  | Unknown, _ -> true
  | Pending, (Pending | Committed | Invalid) -> true
  | Pending, Unknown -> false
  | Committed, to_ -> to_ = Committed
  | Invalid, to_ -> to_ = Invalid

type txid = { view : int; seqno : int }

let txid_to_string { view; seqno } = Printf.sprintf "%d.%d" view seqno

let txid_of_string s =
  match String.index_opt s '.' with
  | None -> None
  | Some i -> (
      try
        Some
          {
            view = int_of_string (String.sub s 0 i);
            seqno = int_of_string (String.sub s (i + 1) (String.length s - i - 1));
          }
      with _ -> None)
