module Entry = Iaccf_ledger.Entry
module Ledger = Iaccf_ledger.Ledger
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Tree = Iaccf_merkle.Tree
module D = Iaccf_crypto.Digest32

type checked = {
  from : int;  (* the ledger length the extent was checked at *)
  m : Tree.t;  (* M at [from] with the extent's leaves appended *)
  extent : Entry.item list;
  rest : Entry.item list;
}

(* The checks are listed in validate.mli. *)
let check_suffix ~ledger ~next_seqno ~cp_seqno ~verify_pp ~vc_set ~new_view entries =
  let from = Ledger.length ledger and tree = Ledger.m_tree_copy ledger in
  let push e = if Entry.in_merkle_tree e then Tree.append tree (Entry.leaf_digest e) in
  let checked extent rest = Ok { from; m = tree; extent = List.rev extent; rest } in
  (* [vcs]: the view-change set just pushed, which a new view must name. *)
  let rec go ?vcs extent expected = function
    | [] ->
        if expected <= cp_seqno then
          Error
            (Printf.sprintf "suffix ends at batch %d, before the checkpoint at %d"
               (expected - 1) cp_seqno)
        else checked extent []
    | Entry.Malformed m :: _ -> Error m
    | (Entry.Protocol e as item) :: rest -> (
        match (e, vcs) with
        | Entry.View_change_set set, _ when vc_set set ->
            push e;
            go ~vcs:set (item :: extent) expected rest
        | Entry.New_view nv, Some set
          when D.equal (Tree.root tree) nv.Message.nv_m_root && new_view set nv ->
            push e;
            go (item :: extent) expected rest
        | Entry.New_view _, _ -> Error "new view refused"
        | _ -> Error "view-change set refused")
    | Entry.Batch { pp; _ } :: _ as rest when pp.Message.seqno > cp_seqno ->
        checked extent rest
    | (Entry.Batch { evidence; pp; txs } as item) :: rest ->
        let s = pp.Message.seqno in
        let signed () =
          match pp.Message.kind with
          | Batch.Checkpoint _ -> verify_pp pp
          | Batch.Regular | Batch.End_of_config _ | Batch.Start_of_config _ -> true
        in
        if s <> expected then
          Error (Printf.sprintf "batch %d out of order (expected %d)" s expected)
        else if not (signed ()) then
          Error (Printf.sprintf "checkpoint batch %d: bad primary signature" s)
        else begin
          List.iter push evidence;
          if not (D.equal (Tree.root tree) pp.Message.m_root) then
            Error
              (Printf.sprintf "batch %d: ledger root diverges from the signed m_root" s)
          else if not (List.for_all Batch.placed txs) then
            Error (Printf.sprintf "batch %d: a transaction below its minimum index" s)
          else if not (D.equal (Batch.g_root txs) pp.Message.g_root) then
            Error
              (Printf.sprintf
                 "batch %d: transactions do not reproduce the signed g_root" s)
          else begin
            push (Entry.Pre_prepare pp);
            List.iter (fun tx -> push (Entry.Tx tx)) txs;
            go (item :: extent) (s + 1) rest
          end
        end
  in
  go [] next_seqno (Entry.batches entries)

let entries_of = function
  | Entry.Batch { evidence; pp; txs } ->
      evidence @ (Entry.Pre_prepare pp :: List.map (fun tx -> Entry.Tx tx) txs)
  | Entry.Protocol e -> [ e ]
  | Entry.Malformed _ -> []

let adopt ledger c f =
  if Ledger.length ledger <> c.from then
    invalid_arg "Validate.adopt: the ledger moved since the extent was checked";
  let items = List.map (fun item -> (item, entries_of item)) c.extent in
  Ledger.append_extent ledger c.m (List.concat_map snd items);
  let upto = ref c.from in
  List.iter
    (fun (item, es) ->
      upto := !upto + List.length es;
      f item ~upto:!upto)
    items;
  c.rest
