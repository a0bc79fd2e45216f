module Genesis = Iaccf_types.Genesis
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Store = Iaccf_kv.Store

type violation =
  | Output_mismatch of {
      v_receipt : Receipt.t;
      v_expected : string;
      v_recorded : string;
    }
  | Duplicate_slot of { v_first : Receipt.t; v_second : Receipt.t }
  | Min_index_violation of { v_receipt : Receipt.t }

let position r =
  (Receipt.seqno r, Option.value (Receipt.index r) ~default:0)

let tx_of r =
  match r.Receipt.subject with
  | Receipt.Tx_subject { tx; _ } -> Some tx
  | Receipt.Batch_subject -> None

let check ~app ~genesis ~receipts =
  let tx_receipts = List.filter (fun r -> tx_of r <> None) receipts in
  let sorted =
    List.sort (fun a b -> compare (position a) (position b)) tx_receipts
  in
  (* Same slot must mean the same transaction. *)
  let rec dup_check = function
    | a :: (b :: _ as rest) ->
        if position a = position b && not (Receipt.equal a b) then
          Error (Duplicate_slot { v_first = a; v_second = b })
        else dup_check rest
    | _ -> Ok ()
  in
  match dup_check sorted with
  | Error _ as e -> e
  | Ok () -> (
      (* Minimum indices capture real-time dependencies (Thm. 2): a request
         created after a receipt for index i carries min_index > i, so
         executing below the minimum proves the ordering was violated. *)
      let rt_check =
        List.fold_left
          (fun acc r ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match tx_of r with
                | Some tx when not (Batch.placed tx) ->
                    Error (Min_index_violation { v_receipt = r })
                | Some _ | None -> Ok ()))
          (Ok ()) sorted
      in
      match rt_check with
      | Error _ as e -> e
      | Ok () -> (
          (* Serial re-execution against a fresh store. *)
          let store = Store.create () in
          let config = genesis.Genesis.initial_config in
          let rec replay = function
            | [] -> Ok ()
            | r :: rest -> (
                match tx_of r with
                | None -> replay rest
                | Some tx ->
                    let req = tx.Batch.request in
                    let output, _ =
                      App.execute app ~config ~caller:req.Request.client_pk ~store
                        ~proc:req.Request.proc ~args:req.Request.args
                    in
                    if String.equal output tx.Batch.result.Batch.output then
                      replay rest
                    else
                      Error
                        (Output_mismatch
                           {
                             v_receipt = r;
                             v_expected = output;
                             v_recorded = tx.Batch.result.Batch.output;
                           }))
          in
          replay sorted))

let pp_violation ppf = function
  | Output_mismatch { v_expected; v_recorded; v_receipt } ->
      Format.fprintf ppf "output mismatch at index %s: serial execution gives %S, receipt says %S"
        (match Receipt.index v_receipt with Some i -> string_of_int i | None -> "?")
        v_expected v_recorded
  | Duplicate_slot _ -> Format.pp_print_string ppf "two receipts claim the same ledger slot"
  | Min_index_violation _ ->
      Format.pp_print_string ppf "executed below its minimum ledger index"
