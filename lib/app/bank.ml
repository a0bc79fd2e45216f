module Store = Iaccf_kv.Store
module App = Iaccf_core.App
module Schnorr = Iaccf_crypto.Schnorr
module Hex = Iaccf_util.Hex

let owner_hex pk = Hex.encode (Schnorr.public_key_to_bytes pk)
let account_key hex = "bank/" ^ hex

let balance_of tx hex =
  Option.bind (Store.get tx (account_key hex)) int_of_string_opt

let split2 args =
  match String.index_opt args ',' with
  | Some i ->
      Some
        ( String.sub args 0 i,
          String.sub args (i + 1) (String.length args - i - 1) )
  | None -> None

(* bank/open: args = initial balance; the account belongs to the caller. *)
let open_account (ctx : App.context) args =
  let me = owner_hex ctx.App.caller in
  match int_of_string_opt args with
  | Some initial when initial >= 0 -> (
      match Store.get ctx.App.tx (account_key me) with
      | Some _ -> Error "account already open"
      | None ->
          Store.put ctx.App.tx (account_key me) (string_of_int initial);
          Ok me)
  | _ -> Error "usage: initial-balance"

(* bank/deposit: args = "owner-hex,amount"; open to anyone. *)
let deposit (ctx : App.context) args =
  match split2 args with
  | Some (owner, amount_s) -> (
      match (balance_of ctx.App.tx owner, int_of_string_opt amount_s) with
      | Some balance, Some amount when amount > 0 ->
          Store.put ctx.App.tx (account_key owner) (string_of_int (balance + amount));
          Ok (string_of_int (balance + amount))
      | None, _ -> Error "no such account"
      | _, _ -> Error "bad amount")
  | None -> Error "usage: owner,amount"

(* bank/withdraw: args = amount; only from the caller's own account. *)
let withdraw (ctx : App.context) args =
  let me = owner_hex ctx.App.caller in
  match (balance_of ctx.App.tx me, int_of_string_opt args) with
  | Some balance, Some amount when amount > 0 ->
      if balance < amount then Error "insufficient funds"
      else begin
        Store.put ctx.App.tx (account_key me) (string_of_int (balance - amount));
        Ok (string_of_int (balance - amount))
      end
  | None, _ -> Error "caller has no account"
  | _, _ -> Error "bad amount"

(* bank/transfer: args = "dst-hex,amount"; source is the caller. *)
let transfer (ctx : App.context) args =
  let me = owner_hex ctx.App.caller in
  match split2 args with
  | Some (dst, amount_s) -> (
      if String.equal dst me then Error "cannot transfer to self"
      else begin
        match
          (balance_of ctx.App.tx me, balance_of ctx.App.tx dst, int_of_string_opt amount_s)
        with
        | Some src_bal, Some dst_bal, Some amount when amount > 0 ->
            if src_bal < amount then Error "insufficient funds"
            else begin
              Store.put ctx.App.tx (account_key me) (string_of_int (src_bal - amount));
              Store.put ctx.App.tx (account_key dst) (string_of_int (dst_bal + amount));
              Ok (string_of_int (src_bal - amount))
            end
        | None, _, _ -> Error "caller has no account"
        | _, None, _ -> Error "no such destination"
        | _, _, _ -> Error "bad amount"
      end)
  | None -> Error "usage: dst,amount"

(* bank/balance: args = owner-hex; public. *)
let balance (ctx : App.context) args =
  match balance_of ctx.App.tx args with
  | Some b -> Ok (string_of_int b)
  | None -> Error "no such account"

(* [bank/open] (args: initial balance) opens the caller's account;
   [bank/deposit] (args: "owner-hex,amount") lets anyone deposit;
   [bank/withdraw] (args: "amount") and [bank/transfer] (args:
   "dst-hex,amount") act on the caller's own account only;
   [bank/balance] (args: "owner-hex") is public. *)
let procedures =
  [
    ("bank/open", open_account);
    ("bank/deposit", deposit);
    ("bank/withdraw", withdraw);
    ("bank/transfer", transfer);
    ("bank/balance", balance);
  ]

let app () = App.create procedures
