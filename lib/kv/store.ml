module D = Iaccf_crypto.Digest32
module Codec = Iaccf_util.Codec

type t = { mutable current : Hamt.t; mutable open_tx : bool }

type write = Put of string | Delete

type tx = {
  store : t;
  mutable working : Hamt.t;
  mutable writes : (string * write) list; (* newest first, may repeat keys *)
  mutable live : bool;
}

let of_map m = { current = m; open_tx = false }
let create () = of_map Hamt.empty
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
  Hamt.find k tx.working

let put tx k v =
  check_live tx;
  tx.working <- Hamt.add k v tx.working;
  tx.writes <- (k, Put v) :: tx.writes

let delete tx k =
  check_live tx;
  tx.working <- Hamt.remove k tx.working;
  tx.writes <- (k, Delete) :: tx.writes

let normalize_writes writes =
  (* Last write per key wins; canonical order by key. The raw list is
     newest-first, so the first occurrence of a key is its final write. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (k, w) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k w)
    writes;
  let entries = Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl [] in
  List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) entries

let write_set_hash writes =
  let entries = normalize_writes writes in
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

let state_digest t =
  let ctx = Iaccf_crypto.Sha256.init () in
  Hamt.fold_sorted
    (fun k v () ->
      Iaccf_crypto.Sha256.feed ctx
        (Codec.encode (fun w ->
             Codec.W.bytes w k;
             Codec.W.bytes w v)))
    t.current ();
  D.of_raw (Iaccf_crypto.Sha256.finalize ctx)
