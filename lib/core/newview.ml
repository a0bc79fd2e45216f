module Message = Iaccf_types.Message
module Entry = Iaccf_ledger.Entry
module Bitmap = Iaccf_util.Bitmap
module D = Iaccf_crypto.Digest32

let rec first = function
  | [] -> None
  | check :: rest -> ( match check () with None -> first rest | fault -> fault)

let rec ascending = function
  | (a : Message.view_change) :: (b :: _ as rest) ->
      a.Message.vc_replica < b.Message.vc_replica && ascending rest
  | _ -> true

let shape_fault ~quorum (vcs : Message.view_change list) =
  match vcs with
  | [] -> Some "empty view-change set"
  | vc :: _ when List.exists (fun x -> x.Message.vc_view <> vc.Message.vc_view) vcs ->
      Some "mixed views in view-change set"
  | _ when not (ascending vcs) -> Some "view-change senders not strictly ascending"
  | _ when List.length vcs < quorum -> Some "view-change set below quorum"
  | _ -> None

let signatures_fault ~verify vcs =
  if List.fold_left (fun ok vc -> verify vc && ok) true vcs then None
  else Some "invalid view-change signature"

let set_fault ~quorum ~verify vcs =
  first [ (fun () -> shape_fault ~quorum vcs); (fun () -> signatures_fault ~verify vcs) ]

let digest vcs = Entry.leaf_digest (Entry.View_change_set vcs)
let senders vcs = Bitmap.of_list (List.map (fun vc -> vc.Message.vc_replica) vcs)

let names_fault (nv : Message.new_view) vcs =
  match vcs with
  | [] -> Some "new-view without view changes"
  | vc :: _ when vc.Message.vc_view <> nv.Message.nv_view -> Some "new-view for wrong view"
  | _ when not (D.equal (digest vcs) nv.Message.nv_vc_hash) -> Some "new-view vc hash mismatch"
  | _ when not (Bitmap.equal (senders vcs) nv.Message.nv_vc_bitmap) ->
      Some "new-view bitmap does not list the view-change senders"
  | _ -> None

let new_view_fault ~quorum ~verify ~verify_nv nv vcs =
  first
    [
      (fun () -> names_fault nv vcs);
      (fun () -> shape_fault ~quorum vcs);
      (fun () -> if verify_nv nv then None else Some "invalid new-view signature");
      (fun () -> signatures_fault ~verify vcs);
    ]

let reported vcs =
  List.concat_map (fun (vc : Message.view_change) -> vc.Message.vc_last_prepared) vcs

let prepared_at vcs seqno =
  List.fold_left
    (fun best (pp : Message.pre_prepare) ->
      match best with
      | _ when pp.Message.seqno <> seqno -> best
      | Some (b : Message.pre_prepare) when b.Message.view >= pp.Message.view -> best
      | _ -> Some pp)
    None (reported vcs)

let last_prepared vcs =
  List.fold_left (fun acc (pp : Message.pre_prepare) -> max acc pp.Message.seqno) 0
    (reported vcs)

let resume ~pipeline vcs = max 0 (last_prepared vcs - pipeline)
