module Message = Iaccf_types.Message
module D = Iaccf_crypto.Digest32
module Nonce = Iaccf_crypto.Nonce
module Bitmap = Iaccf_util.Bitmap

type slot = int * int (* (view, seqno) *)

type t = {
  nonce_key : string;
  prepares : (slot, (int, Message.prepare) Hashtbl.t) Hashtbl.t;
  nonces : (slot, (int, string) Hashtbl.t) Hashtbl.t;
  own : (slot, string) Hashtbl.t;
}

let create ~nonce_key =
  {
    nonce_key;
    prepares = Hashtbl.create 64;
    nonces = Hashtbl.create 64;
    own = Hashtbl.create 64;
  }

(* ------------------------------------------------------------------ *)
(* The rule                                                            *)

let prepare_fault (pp : Message.pre_prepare) ~pph (p : Message.prepare) =
  if p.Message.p_view <> pp.Message.view || p.Message.p_seqno <> pp.Message.seqno then
    Some "prepare evidence for wrong slot"
  else if not (D.equal p.Message.p_pp_hash pph) then
    Some "prepare evidence does not match pre-prepare"
  else if p.Message.p_replica = pp.Message.primary then
    Some "primary listed in prepare evidence"
  else None

let nonce_fault (pp : Message.pre_prepare) prepares (r, nonce) =
  let commitment =
    if r = pp.Message.primary then Some pp.Message.nonce_com
    else
      List.find_opt (fun (p : Message.prepare) -> p.Message.p_replica = r) prepares
      |> Option.map (fun (p : Message.prepare) -> p.Message.p_nonce_com)
  in
  match commitment with
  | None -> Some "nonce from a replica without a prepare"
  | Some commitment when Nonce.opens ~commitment nonce -> None
  | Some _ -> Some "nonce does not open its commitment"

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)

let slot_of (pp : Message.pre_prepare) = (pp.Message.view, pp.Message.seqno)

let sub tbl key =
  match Hashtbl.find_opt tbl key with
  | Some sub -> sub
  | None ->
      let sub = Hashtbl.create 8 in
      Hashtbl.replace tbl key sub;
      sub

let find tbl key r = Option.bind (Hashtbl.find_opt tbl key) (fun sub -> Hashtbl.find_opt sub r)

let add_prepare t (p : Message.prepare) =
  Hashtbl.replace (sub t.prepares (p.Message.p_view, p.Message.p_seqno)) p.Message.p_replica p

let add_nonce t ~view ~seqno (r, n) = Hashtbl.replace (sub t.nonces (view, seqno)) r n
let prepare_of t ~view ~seqno r = find t.prepares (view, seqno) r

let commit_own t ~view ~seqno =
  let nonce = Nonce.derive ~key:t.nonce_key ~view ~seqno in
  Hashtbl.replace t.own (view, seqno) (Nonce.reveal nonce);
  Nonce.commit nonce

let own_nonce t ~view ~seqno = Hashtbl.find_opt t.own (view, seqno)

(* ------------------------------------------------------------------ *)
(* The rule, on the stores                                             *)

let fold_prepares t pp f acc =
  match Hashtbl.find_opt t.prepares (slot_of pp) with
  | None -> acc
  | Some prepares ->
      let pph = Message.pp_hash pp in
      Hashtbl.fold
        (fun r p acc -> if prepare_fault pp ~pph p = None then f r p acc else acc)
        prepares acc

let prepared_count t pp = fold_prepares t pp (fun _ _ n -> n + 1) 0

(* The primary's revealed nonce, if it opens the pre-prepare's commitment. *)
let primary_opening t (pp : Message.pre_prepare) =
  let r = pp.Message.primary in
  match find t.nonces (slot_of pp) r with
  | Some n when nonce_fault pp [] (r, n) = None -> Some n
  | _ -> None

(* Backups, ascending by id, whose prepare and revealed nonce both count. *)
let candidates t pp =
  let nonces = Hashtbl.find_opt t.nonces (slot_of pp) in
  fold_prepares t pp
    (fun r p acc ->
      match Option.bind nonces (fun nonces -> Hashtbl.find_opt nonces r) with
      | Some n when nonce_fault pp [ p ] (r, n) = None -> (r, p, n) :: acc
      | _ -> acc)
    []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let committed t pp ~quorum =
  List.length (candidates t pp) + (if primary_opening t pp = None then 0 else 1) >= quorum

let quorum_backups t pp ~quorum =
  let candidates = candidates t pp in
  if List.length candidates < quorum - 1 then None
  else Some (List.filteri (fun i _ -> i < quorum - 1) candidates)

(* Evidence in ledger layout: the backups' prepares, and the nonces of the
   primary and the backups, ascending by id. *)
let evidence (pp : Message.pre_prepare) primary_nonce chosen =
  ( List.map (fun (_, p, _) -> p) chosen,
    List.sort compare
      ((pp.Message.primary, primary_nonce) :: List.map (fun (r, _, n) -> (r, n)) chosen) )

let evidence_for t pp ~quorum =
  match (primary_opening t pp, quorum_backups t pp ~quorum) with
  | Some primary_nonce, Some chosen ->
      let prepares, nonces = evidence pp primary_nonce chosen in
      Some (prepares, nonces, Bitmap.of_list (List.map fst nonces))
  | _ -> None

let evidence_matching t (pp : Message.pre_prepare) ~quorum bitmap =
  if Bitmap.cardinal bitmap <> quorum || not (Bitmap.mem pp.Message.primary bitmap) then None
  else
    match primary_opening t pp with
    | None -> None
    | Some primary_nonce ->
        let members = List.filter (fun (r, _, _) -> Bitmap.mem r bitmap) (candidates t pp) in
        if List.length members <> quorum - 1 then None
        else Some (evidence pp primary_nonce members)
