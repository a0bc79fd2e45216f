module Vec = Iaccf_util.Vec
module Codec = Iaccf_util.Codec
module Tree = Iaccf_merkle.Tree
module D = Iaccf_crypto.Digest32

type slot = { entry : Entry.t; m_size_after : int; bytes : int }

type sink = {
  sink_append : int -> string -> unit;
  sink_truncate : int -> unit;
}

type t = {
  slots : slot Vec.t;
  mutable tree : Tree.t;
  mutable byte_total : int;
  mutable sink : sink option;
}

let set_sink t sink = t.sink <- sink

(* [raw] is [Entry.serialize entry]; M has [m_size] leaves with it. *)
let push_slot t entry raw ~m_size =
  let bytes = String.length raw in
  Vec.push t.slots { entry; m_size_after = m_size; bytes };
  t.byte_total <- t.byte_total + bytes;
  let index = Vec.length t.slots - 1 in
  (match t.sink with Some s -> s.sink_append index raw | None -> ());
  index

let push_raw t entry raw =
  if Entry.in_merkle_tree entry then Tree.append t.tree (Entry.leaf_of_serialized raw);
  push_slot t entry raw ~m_size:(Tree.size t.tree)

let push t entry = push_raw t entry (Entry.serialize entry)

let append_extent t m entries =
  let size = ref (Tree.size t.tree) in
  if Tree.size m <> !size + List.length (List.filter Entry.in_merkle_tree entries) then
    invalid_arg "Ledger.append_extent: the tree does not extend M by these entries";
  t.tree <- m;
  List.iter
    (fun e ->
      if Entry.in_merkle_tree e then incr size;
      ignore (push_slot t e (Entry.serialize e) ~m_size:!size))
    entries

let empty () = { slots = Vec.create (); tree = Tree.create (); byte_total = 0; sink = None }

let create genesis =
  let t = empty () in
  ignore (push t (Entry.Genesis genesis));
  t

let is_genesis = function Entry.Genesis _ -> true | _ -> false

let of_entries entries =
  (match entries with
  | e :: _ when is_genesis e -> ()
  | _ -> invalid_arg "Ledger.of_entries: first entry must be the genesis");
  let t = empty () in
  List.iter (fun e -> ignore (push t e)) entries;
  t

(* The leaves hash the bytes as given: no entry is serialized again. *)
let of_serialized raws =
  let t = empty () in
  List.iter (fun raw -> ignore (push_raw t (Entry.deserialize raw) raw)) raws;
  if Vec.length t.slots = 0 || not (is_genesis (Vec.get t.slots 0).entry) then
    invalid_arg "Ledger.of_serialized: first entry must be the genesis";
  t

let length t = Vec.length t.slots
let get t i = (Vec.get t.slots i).entry
let append = push
let m_root t = Tree.root t.tree
let m_size t = Tree.size t.tree
let m_tree_copy t = Tree.copy t.tree
let m_path t i = Tree.path t.tree i
let m_size_at t i = if i <= 0 then 0 else (Vec.get t.slots (i - 1)).m_size_after

let truncate t n =
  if n < 1 then invalid_arg "Ledger.truncate: cannot drop the genesis";
  if n < Vec.length t.slots then begin
    let m_size = m_size_at t n in
    for i = n to Vec.length t.slots - 1 do
      t.byte_total <- t.byte_total - (Vec.get t.slots i).bytes
    done;
    Vec.truncate t.slots n;
    Tree.truncate t.tree m_size;
    match t.sink with Some s -> s.sink_truncate n | None -> ()
  end

let iteri f t = Vec.iteri (fun i slot -> f i slot.entry) t.slots

let entries t ?(from = 0) ?until () =
  let until = match until with None -> length t | Some u -> min u (length t) in
  let rec go i acc =
    if i < from then acc else go (i - 1) ((i, get t i) :: acc)
  in
  go (until - 1) []

let m_root_at t i = Tree.root_at t.tree (m_size_at t i)

let find_pre_prepare t ~seqno =
  let best = ref None in
  iteri
    (fun i entry ->
      match entry with
      | Entry.Pre_prepare pp when pp.Iaccf_types.Message.seqno = seqno -> (
          match !best with
          | Some (_, prev) when prev.Iaccf_types.Message.view >= pp.Iaccf_types.Message.view -> ()
          | _ -> best := Some (i, pp))
      | _ -> ())
    t;
  !best

let governance_indices t =
  let acc = ref [] in
  iteri
    (fun i entry ->
      match entry with
      | Entry.Genesis _ -> acc := i :: !acc
      | Entry.Tx tx when Iaccf_types.Request.is_governance tx.Iaccf_types.Batch.request ->
          acc := i :: !acc
      | _ -> ())
    t;
  List.rev !acc

let serialize t =
  Codec.encode (fun w ->
      Codec.W.list w
        (fun (_, e) -> Codec.W.bytes w (Entry.serialize e))
        (entries t ()))

let deserialize s =
  Codec.decode s (fun r ->
      of_serialized (Codec.R.list r Codec.R.bytes))

let total_bytes t = t.byte_total
