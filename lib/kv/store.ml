module D = Iaccf_crypto.Digest32
module Codec = Iaccf_util.Codec

type t = { mutable current : string State.t; mutable open_tx : bool }

type write = Put of string | Delete

type tx = {
  store : t;
  mutable working : string State.t;
  mutable writes : (string * write) list; (* newest first, may repeat keys *)
  mutable live : bool;
}

let of_map m = { current = m; open_tx = false }
let create () = of_map State.empty
let map t = t.current

let reset_to t m =
  if t.open_tx then invalid_arg "Store.reset_to: transaction open";
  t.current <- m

let begin_tx store =
  if store.open_tx then invalid_arg "Store.begin_tx: transaction already open";
  store.open_tx <- true;
  { store; working = store.current; writes = []; live = true }

let check_live tx = if not tx.live then invalid_arg "Store: transaction is closed"

let get tx k =
  check_live tx;
  State.find_opt k tx.working

let put tx k v =
  check_live tx;
  tx.working <- State.add k v tx.working;
  tx.writes <- (k, Put v) :: tx.writes

let delete tx k =
  check_live tx;
  tx.working <- State.remove k tx.working;
  tx.writes <- (k, Delete) :: tx.writes

(* Last write per key wins; canonical order by key. The raw list is
   newest-first and the sort is stable, so each key's run keeps that order
   and its first entry is the key's final write. *)
let normalize_writes writes =
  let rec first_of_runs = function
    | [] -> []
    | ((k, _) as x) :: rest -> x :: first_of_runs (drop_key k rest)
  and drop_key k = function
    | (k', _) :: rest when String.equal k k' -> drop_key k rest
    | l -> l
  in
  first_of_runs (List.stable_sort (fun (k1, _) (k2, _) -> String.compare k1 k2) writes)

let write_set_hash entries =
  let payload =
    Codec.encode (fun w ->
        Codec.W.list w
          (fun (k, wr) ->
            Codec.W.bytes w k;
            match wr with
            | Put v ->
                Codec.W.u8 w 1;
                Codec.W.bytes w v
            | Delete -> Codec.W.u8 w 0)
          entries)
  in
  D.of_string payload

let commit_with_writes tx =
  check_live tx;
  tx.live <- false;
  let store = tx.store in
  store.open_tx <- false;
  store.current <- tx.working;
  let writes = normalize_writes tx.writes in
  (write_set_hash writes, writes)

let commit tx = fst (commit_with_writes tx)

let abort tx =
  check_live tx;
  tx.live <- false;
  tx.store.open_tx <- false
