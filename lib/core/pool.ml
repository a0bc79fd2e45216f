module D = Iaccf_crypto.Digest32
module Request = Iaccf_types.Request
module Order = Map.Make (Int)

(* One entry per known request says which it is, so none is both pending
   and executed; a pending one's arrival number is its one place in
   [order]. *)
type state = Pending of int * Request.t | Executed of int * int

type t = {
  table : (D.t, state) Hashtbl.t;
  mutable order : Request.t Order.t; (* arrival number -> pending request *)
  mutable arrivals : int;
  mutable size : int;
}

let create () = { table = Hashtbl.create 64; order = Order.empty; arrivals = 0; size = 0 }
let size t = t.size
let pending t = List.map snd (Order.bindings t.order)
let known t h = Hashtbl.mem t.table h
let find t h = Hashtbl.find_opt t.table h
let executed_at t h = match find t h with Some (Executed (s, i)) -> Some (s, i) | _ -> None

let enqueue t req =
  t.arrivals <- t.arrivals + 1;
  t.size <- t.size + 1;
  Hashtbl.replace t.table (Request.hash req) (Pending (t.arrivals, req));
  t.order <- Order.add t.arrivals req t.order;
  true

let admit t req = (not (known t (Request.hash req))) && enqueue t req
let return t req =
  match find t (Request.hash req) with Some (Pending _) -> false | _ -> enqueue t req

let execute t req ~seqno ~index =
  let h = Request.hash req in
  (match find t h with
  | Some (Pending (n, _)) ->
      t.order <- Order.remove n t.order;
      t.size <- t.size - 1
  | Some (Executed _) | None -> ());
  Hashtbl.replace t.table h (Executed (seqno, index))

let resolves t hashes = List.for_all (known t) hashes

let batch t hashes =
  let pending h = match find t h with Some (Pending (_, r)) -> Some r | _ -> None in
  let reqs = List.filter_map pending hashes in
  let distinct = List.sort_uniq compare hashes in
  if List.compare_lengths reqs hashes = 0 && List.compare_lengths distinct hashes = 0 then
    Some reqs
  else None

let take t ~max ~base_index =
  let rec go acc n seq =
    match seq () with
    | Seq.Cons ((_, req), rest) when n > 0 ->
        if not (Request.may_execute_at req ~index:(base_index + max - n)) then go acc n rest
        else if Request.is_governance req then List.rev (req :: acc)
        else go (req :: acc) (n - 1) rest
    | Seq.Cons _ | Seq.Nil -> List.rev acc
  in
  go [] max (Order.to_seq t.order)
