module Config = Iaccf_types.Config
module Batch = Iaccf_types.Batch
module D = Iaccf_crypto.Digest32

type rule = { pipeline : int; interval : int; checkpoints : bool }

type phase =
  | Normal
  | Ending of { vote_seqno : int; new_config : Config.t; committed_root : D.t }
  | Starting of { cp_seqno : int }

let checkpoint_due rule s = rule.checkpoints && s mod rule.interval = 0
let activation ~pipeline ~vote_seqno = vote_seqno + (2 * pipeline)
let last_start rule ~cp_seqno = cp_seqno + 1 + rule.pipeline

type slot = Regular | Fixed of Batch.kind | Closed

let slot rule phase ~latest_cp ~digest s =
  let checkpoint cp_seqno =
    match digest cp_seqno with
    | Some cp_digest -> Fixed (Batch.Checkpoint { cp_seqno; cp_digest })
    | None -> Closed
  in
  match phase with
  | Normal -> if checkpoint_due rule s then checkpoint latest_cp else Regular
  | Ending { vote_seqno; committed_root; _ } ->
      let phase = s - vote_seqno in
      if phase >= 1 && phase <= 2 * rule.pipeline then
        Fixed (Batch.End_of_config { phase; committed_root })
      else Closed
  | Starting { cp_seqno } ->
      if s = cp_seqno + 1 then checkpoint cp_seqno
      else if s > cp_seqno + 1 && s <= last_start rule ~cp_seqno then
        Fixed (Batch.Start_of_config { phase = s - cp_seqno - 1 })
      else Closed

let accepts slot kind =
  match (slot, kind) with
  | Regular, Batch.Regular -> true
  | Fixed expected, _ -> Batch.kind_equal expected kind
  | (Regular | Closed), _ -> false

type step = { next : phase; checkpoint : bool; activate : Config.t option }

let stay phase = { next = phase; checkpoint = false; activate = None }

let step rule phase s ~passed =
  match phase with
  | Normal ->
      let next =
        match passed () with
        | Some (new_config, committed_root) -> Ending { vote_seqno = s; new_config; committed_root }
        | None -> Normal
      in
      { next; checkpoint = checkpoint_due rule s; activate = None }
  | Ending { vote_seqno; new_config; _ }
    when s = activation ~pipeline:rule.pipeline ~vote_seqno ->
      { next = Starting { cp_seqno = s }; checkpoint = true; activate = Some new_config }
  | Starting { cp_seqno } when s = last_start rule ~cp_seqno -> stay Normal
  | Ending _ | Starting _ -> stay phase

let handed_over phase ~last_committed =
  match phase with
  | Normal -> true
  | Starting { cp_seqno } -> last_committed >= cp_seqno
  | Ending _ -> false

(* Ascending by activation seqno; each configuration is active for the
   seqnos strictly above its own and up to the next one's. *)
type timeline = (int * Config.t) list

let timeline genesis_config = [ (0, genesis_config) ]

let extend tl ~pipeline ~vote_seqno config =
  let a = activation ~pipeline ~vote_seqno in
  List.filter (fun (a', _) -> a' < a) tl @ [ (a, config) ]

let config_at tl s =
  List.fold_left (fun acc (a, config) -> if s > a then config else acc) (snd (List.hd tl)) tl

let activates tl s = List.exists (fun (a, _) -> a = s) tl
let latest tl = snd (List.hd (List.rev tl))
