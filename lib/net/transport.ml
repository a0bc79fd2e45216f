(* The backend seam. Core logic (Replica/Client/Observer) talks only to
   the simulator's ['msg Network.t]; this module decides what a network
   address *means*:

   - Sim backend: nothing to do — every address is a registered handler
     in the same process, messages move in memory with modelled latency.
     This function is deliberately absent here; not attaching a transport
     IS the sim backend.

   - Socket backend: {!attach} installs a gateway on the network, so any
     send to an address with no local handler is serialized into a
     versioned envelope, CRC-framed, and queued on the endpoint; inbound
     frames are decoded and {!Iaccf_sim.Network.inject}ed, which
     schedules delivery inside the event loop exactly like a local
     message. Wiring is the only difference between the two worlds. *)

module Network = Iaccf_sim.Network
module Obs = Iaccf_obs.Obs
module Wire_codec = Iaccf_core.Wire_codec
module Wire = Iaccf_core.Wire
module Request = Iaccf_types.Request

type t = {
  obs : Obs.t;
  c_garbage : Obs.counter;
  mutable on_request : src:int -> Request.t -> unit;
}

let set_on_request t f = t.on_request <- f

let attach ?obs ~network ~endpoint () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  let t =
    {
      obs;
      c_garbage = Obs.counter obs "net.dropped.garbage";
      on_request = (fun ~src:_ _ -> ());
    }
  in
  Network.set_gateway network (fun ~src ~dst msg ->
      Endpoint.send endpoint ~dst (Wire_codec.encode_envelope ~src ~dst msg));
  Endpoint.set_on_frame endpoint (fun conn payload ->
      match Wire_codec.decode_envelope payload with
      | src, dst, msg ->
          (* The reply path: whatever this source is (client, observer,
             another replica), it is reachable over this connection. *)
          Endpoint.learn_route endpoint ~src conn;
          (match msg with
          | Wire.Request_msg r -> t.on_request ~src r
          | _ -> ());
          Network.inject network ~src ~dst msg
      | exception Iaccf_util.Codec.Decode_error _ ->
          (* CRC-valid but undecodable: version skew or a corrupt encoder
             on the other side. Drop the frame, keep the connection — the
             framing is still sound. *)
          Obs.incr t.c_garbage);
  t
