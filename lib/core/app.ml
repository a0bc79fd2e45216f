module Store = Iaccf_kv.Store
module Config = Iaccf_types.Config
module Schnorr = Iaccf_crypto.Schnorr
module Codec = Iaccf_util.Codec
module Hex = Iaccf_util.Hex
module D = Iaccf_crypto.Digest32

type context = { caller : Schnorr.public_key; tx : Store.tx; config : Config.t }
type procedure = context -> string -> (string, string) result
type t = { procedures : (string, procedure) Hashtbl.t }

let reserved_prefix = "gov/"
let config_key = "gov/config"
let proposal_key id = "gov/proposal/" ^ id
let votes_key id = "gov/votes/" ^ id

let is_reserved name =
  String.length name >= String.length reserved_prefix
  && String.sub name 0 (String.length reserved_prefix) = reserved_prefix

let caller_member ctx =
  List.find_opt
    (fun m -> Schnorr.public_key_equal m.Config.member_pk ctx.caller)
    ctx.config.Config.members

(* gov/propose: args is a serialized Config.t for the next configuration. *)
let gov_propose ctx args =
  match caller_member ctx with
  | None -> Error "caller is not a consortium member"
  | Some _ -> (
      match Config.deserialize args with
      | exception _ -> Error "malformed configuration proposal"
      | proposed ->
          if proposed.Config.config_no <> ctx.config.Config.config_no + 1 then
            Error "proposal must carry the next configuration number"
          else begin
            match Config.validate proposed with
            | Error e -> Error ("invalid configuration: " ^ e)
            | Ok () ->
                (* Liveness guard (§5.1): at most f replicas change. *)
                let changed =
                  List.length
                    (List.filter
                       (fun (r : Config.replica_info) ->
                         match Config.replica ctx.config r.replica_id with
                         | None -> true
                         | Some old ->
                             not
                               (Schnorr.public_key_equal old.Config.replica_pk
                                  r.Config.replica_pk))
                       proposed.Config.replicas)
                  + List.length
                      (List.filter
                         (fun (r : Config.replica_info) ->
                           Config.replica proposed r.replica_id = None)
                         ctx.config.Config.replicas)
                in
                if changed > Config.f ctx.config + 1 then
                  Error "proposal changes more than f replicas"
                else begin
                  let id = D.to_hex (D.of_string args) in
                  Store.put ctx.tx (proposal_key id) args;
                  Store.put ctx.tx (votes_key id) "";
                  Ok id
                end
          end)

let decode_votes s = if s = "" then [] else String.split_on_char '\n' s
let encode_votes vs = String.concat "\n" vs

(* gov/vote: args is the proposal id returned by gov/propose. *)
let gov_vote ctx args =
  match caller_member ctx with
  | None -> Error "caller is not a consortium member"
  | Some m -> (
      let id = args in
      match Store.get ctx.tx (proposal_key id) with
      | None -> Error "no such proposal"
      | Some proposal_bytes -> (
          match Store.get ctx.tx (votes_key id) with
          | None -> Error "proposal already resolved"
          | Some votes ->
              let votes = decode_votes votes in
              if List.mem m.Config.member_name votes then Error "already voted"
              else begin
                let votes = votes @ [ m.Config.member_name ] in
                if List.length votes >= ctx.config.Config.vote_threshold then begin
                  (* Final vote: the referendum passes and the new
                     configuration is installed (§5.1). *)
                  Store.put ctx.tx config_key proposal_bytes;
                  Store.delete ctx.tx (proposal_key id);
                  Store.delete ctx.tx (votes_key id);
                  Ok "passed"
                end
                else begin
                  Store.put ctx.tx (votes_key id) (encode_votes votes);
                  Ok (Printf.sprintf "voted:%d/%d" (List.length votes)
                        ctx.config.Config.vote_threshold)
                end
              end))

let builtin = [ ("gov/propose", gov_propose); ("gov/vote", gov_vote) ]

let create procs =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, p) ->
      if is_reserved name then
        invalid_arg (Printf.sprintf "App.create: %s uses the reserved gov/ prefix" name);
      if Hashtbl.mem table name then
        invalid_arg (Printf.sprintf "App.create: duplicate procedure %s" name);
      Hashtbl.add table name p)
    procs;
  List.iter (fun (name, p) -> Hashtbl.add table name p) builtin;
  { procedures = table }

(* User procedures and the built-in governance procedures. *)
let find t name = Hashtbl.find_opt t.procedures name
let output_ok s = "\x01" ^ s
let output_error s = "\x00" ^ s

let decode_output s =
  if String.length s = 0 then Error "empty output"
  else begin
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with '\x01' -> Ok rest | _ -> Error rest
  end

let execute_ws t ~config ~caller ~store ~proc ~args =
  match find t proc with
  | None ->
      let tx = Store.begin_tx store in
      let wsh, ws = Store.commit_with_writes tx in
      (output_error ("unknown procedure: " ^ proc), wsh, ws)
  | Some p ->
      let tx = Store.begin_tx store in
      let ctx = { caller; tx; config } in
      (match p ctx args with
      | Ok out ->
          let wsh, ws = Store.commit_with_writes tx in
          (output_ok out, wsh, ws)
      | Error e ->
          (* Failed procedures must not write; abort and commit an empty
             transaction so every request still has a ledger entry. *)
          Store.abort tx;
          let tx = Store.begin_tx store in
          let wsh, ws = Store.commit_with_writes tx in
          (output_error e, wsh, ws)
      | exception _ ->
          Store.abort tx;
          let tx = Store.begin_tx store in
          let wsh, ws = Store.commit_with_writes tx in
          (output_error "procedure raised", wsh, ws))

let execute t ~config ~caller ~store ~proc ~args =
  let out, wsh, _ = execute_ws t ~config ~caller ~store ~proc ~args in
  (out, wsh)
