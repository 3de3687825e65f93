(* Node construction shared by the workloads and the layer ladder. *)

module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Engine = Genas_core.Engine
module Reorder = Genas_core.Reorder
module Selectivity = Genas_core.Selectivity
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Transport = Genas_ens.Transport
module Broker_server = Genas_ens.Broker_server
module Broker_client = Genas_ens.Broker_client

(* The paper's best configuration: attributes by measure A2, values by
   measure V1. *)
let v1a2 =
  {
    Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
    value_choice = `Measure Selectivity.V1;
  }

type cfg = {
  aggregate : bool;  (** covering aggregation in the engine *)
  observed : bool;  (** metrics registry + never-sampling tracer *)
  journaled : bool;  (** write-ahead journal, fsync off, no snapshots *)
}

(* {1 Scratch files}

   Sockets and journals live under [out/] in the checkout, named by
   process id so concurrent runs cannot collide, and are removed on
   every exit path. *)

let out_dir = Filename.concat "repobench" "out"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_counter = ref 0

(* A fresh scratch path under [out/]; the caller removes it. *)
let scratch kind =
  incr scratch_counter;
  Filename.concat out_dir
    (Printf.sprintf "%s-%d-%d" kind (Unix.getpid ()) !scratch_counter)

(* {1 Brokers} *)

let subscriber_name i = "s" ^ string_of_int i

(* A V1+A2 broker holding [profiles], each subscribed with [handler].
   [journal_dir] is required when [cfg.journaled]. A plain engine's
   matcher is compiled before returning, so the first publish does not
   pay it; an aggregated engine is left as subscribing leaves it, since
   its own delta policy decides when to swap. *)
let broker ?journal_dir cfg profiles handler =
  let metrics, tracer =
    if cfg.observed then
      (Some (Genas_obs.Metrics.create ()), Some (Genas_obs.Trace.create ~sample:0.0 ~seed:1 ()))
    else (None, None)
  in
  (* Snapshots fsync whatever the journal's setting, so none is taken
     during a run: with fsync off, the disk stays out of the timings. *)
  let journal =
    if cfg.journaled then
      Some (Journal.config ~fsync:false ~snapshot_every:max_int (Option.get journal_dir))
    else None
  in
  let b =
    Broker.create ~spec:v1a2 ?metrics ?tracer ?journal ~aggregate:cfg.aggregate
      Gen.schema
  in
  Array.iteri
    (fun i p -> ignore (Broker.subscribe b ~subscriber:(subscriber_name i) ~profile:p handler))
    profiles;
  if not cfg.aggregate then Engine.swap_now (Broker.engine b);
  b

(* {1 Loopback wire} *)

let deadline_s = 5.0

type wire = {
  server : Broker_server.t;
  clients : Broker_client.t list;
  sock : string;
}

let close_wire w =
  List.iter Broker_client.close w.clients;
  Broker_server.stop w.server;
  rm_rf w.sock

(* Serve [b] on a Unix socket under [out/] and connect [names] clients
   to it. Liveness pings are off: the links are loopback and a ping
   would add traffic the workload did not ask for. *)
let serve b names =
  let sock = scratch "sock" in
  let addr = Transport.Unix_sock sock in
  let server = Broker_server.create ~name:"server" ~heartbeat:None ~broker:b addr in
  Broker_server.start server;
  let w = ref { server; clients = []; sock } in
  (try
     List.iter
       (fun name ->
         match Broker_client.connect ~name ~heartbeat:None ~deadline_s Gen.schema addr with
         | Ok c -> w := { !w with clients = !w.clients @ [ c ] }
         | Error e -> failwith ("connect " ^ name ^ ": " ^ e))
       names
   with e ->
     close_wire !w;
     raise e);
  !w
