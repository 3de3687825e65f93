(* Per-layer rungs, timed from outside.

   Each rung calls one layer's public function on the workload's own
   inputs, on twins of the workload's node: the flat kernel under the
   engine, [Engine.match_with], [Broker.publish] without and with
   observability, the codec, [Journal.append], [Broker_server.publish]
   and the acknowledged [Broker_client.publish] round trip. Aggregation,
   profile churn and delivery fan-out are timed on a covering-heavy
   aggregated broker (Gen.covering), whatever the workload, since the
   workloads' own nodes hold few covering roots. Rungs run
   round-robin in blocks over the same events, and a layer's self time
   is the median over blocks of its rung minus the rung below it.

   Exact counts (comparisons, matches, allocated words, bytes, syscalls)
   come from one untimed pass over the event pool, so the same seed
   gives the same figures. *)

module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Flat = Genas_filter.Flat
module Ops = Genas_filter.Ops
module Engine = Genas_core.Engine
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Transport = Genas_ens.Transport
module Codec = Genas_ens.Codec
module Supervise = Genas_ens.Supervise
module Broker_server = Genas_ens.Broker_server
module Broker_client = Genas_ens.Broker_client

type rung = { span : int; per_block : float Queue.t }

let rung spans name = { span = Spans.intern spans name; per_block = Queue.create () }

let samples r = Array.of_seq (Queue.to_seq r.per_block)

let med r = Probe.median (samples r)

(* Median over blocks of [a - b], the blocks being paired. *)
let med_diff a b =
  let a = samples a and b = samples b in
  Probe.median (Array.init (min (Array.length a) (Array.length b)) (fun i -> a.(i) -. b.(i)))

let words_loop n f =
  let w0 = Probe.words () in
  for i = 0 to n - 1 do
    f i
  done;
  Probe.words () -. w0

(* Words allocated per call of [f i] over [n] calls, less what the
   measurement itself allocates. *)
let words_per n f =
  (words_loop n f -. words_loop n (fun _ -> ())) /. float_of_int n

(* Time [per] calls of [f] for each rung in turn until [seconds] pass.
   Each rung first runs the block untimed, so every rung finds the
   block's events and its own code and data in cache, whatever ran
   before it: rungs differ only by their own work, which is what the
   self-time subtraction needs. One block = one trace: a root span with
   a child span per rung. *)
let round_robin spans ~root ~seconds ~per rungs =
  let deadline = Probe.now () + int_of_float (seconds *. 1e9) in
  let block = ref 0 in
  while !block < 3 || Probe.now () < deadline do
    let base = !block * per in
    let t_root = Probe.now () in
    let root_id = Spans.add spans ~name:root ~trace:!block ~parent:(-1) t_root t_root in
    List.iter
      (fun (r, f) ->
        for i = base to base + per - 1 do
          f i
        done;
        let t0 = Probe.now () in
        for i = base to base + per - 1 do
          f i
        done;
        let t1 = Probe.now () in
        ignore (Spans.add spans ~name:r.span ~trace:!block ~parent:root_id t0 t1);
        Queue.push (float_of_int (t1 - t0) /. float_of_int per) r.per_block)
      rungs;
    Spans.finish spans root_id (Probe.now ());
    incr block
  done

(* Latencies of [op i] in µs for [n] ops. *)
let op_latencies n op =
  Array.init n (fun i ->
      let t0 = Probe.now () in
      op i;
      float_of_int (Probe.now () - t0) /. 1000.0)

type inputs = {
  cfg : Node.cfg;
  profiles : Profile.t array;
  churn : Profile.t array;
  events : Event.t array;
  covering : (Profile.t array * Profile.t array) Lazy.t;
      (** covering-heavy profiles and their churn *)
}

(* Events per exact pass on the covering broker, whose publishes cost
   about a thousand times a classic one. *)
let cover_events = 1024

let run spans ~seconds inp =
  let n_ev = Array.length inp.events in
  let mask = n_ev - 1 in
  let ev i = inp.events.(i land mask) in
  let notified = ref 0 in
  let count _ = incr notified in
  let scratch = ref [] in
  let dir kind =
    let d = Node.scratch kind in
    scratch := d :: !scratch;
    d
  in
  let journal_dir () = if inp.cfg.journaled then Some (dir "twin") else None in
  let bare =
    Node.broker ?journal_dir:(journal_dir ()) { inp.cfg with observed = false } inp.profiles count
  in
  let observed =
    Node.broker ?journal_dir:(journal_dir ()) { inp.cfg with observed = true } inp.profiles count
  in
  let cover_profiles, cover_churn = Lazy.force inp.covering in
  let fan =
    Node.broker { Node.aggregate = true; observed = false; journaled = false } cover_profiles count
  in
  let agg = Broker.engine fan in
  let close () =
    Broker.close bare;
    Broker.close observed;
    Broker.close fan;
    List.iter Node.rm_rf !scratch
  in
  Fun.protect ~finally:close (fun () ->
      let eng = Broker.engine bare in
      let no_ids ~ids:_ ~len:_ = () in
      for i = 0 to n_ev - 1 do
        ignore (Broker.publish bare (ev i));
        ignore (Broker.publish observed (ev i))
      done;
      for i = 0 to cover_events - 1 do
        ignore (Broker.publish fan (ev i))
      done;
      let flat = Engine.flat eng in
      let cur = Flat.cursor flat in
      let flat_ops = Ops.create () in
      let encode i =
        Transport.encode_message
          (Transport.Publish { token = i; origin = "bench"; events = [| ev i |]; ctx = None })
      in
      let encoded = Array.init n_ev encode in
      let jdir = dir "journal" in
      let journal = Journal.create Gen.schema (Journal.config ~fsync:false jdir) in
      let record i =
        Journal.Publish
          {
            events = [| ev i |];
            batch = false;
            published = i;
            notifications = 0;
            ops = Ops.create ();
            supervise = Supervise.export (Broker.supervisor bare);
            new_deadletters = [];
            dlq_total = 0;
            dlq_dropped = 0;
          }
      in
      let records = Array.init n_ev record in
      Fun.protect ~finally:(fun () -> Journal.close journal) @@ fun () ->
      (* Exact pass. *)
      let flat_words =
        words_per n_ev (fun i -> ignore (Flat.match_into ~ops:flat_ops flat cur (ev i)))
      in
      let engine_words = words_per n_ev (fun i -> Engine.match_with eng (ev i) ~f:no_ids) in
      let bare_words = words_per n_ev (fun i -> ignore (Broker.publish bare (ev i))) in
      let obs_words = words_per n_ev (fun i -> ignore (Broker.publish observed (ev i))) in
      let aops = Engine.ops agg in
      let m0 = aops.Ops.matches and e0 = aops.Ops.events in
      let agg_words = words_per cover_events (fun i -> Engine.match_with agg (ev i) ~f:no_ids) in
      let matches_per_event =
        float_of_int (aops.Ops.matches - m0) /. float_of_int (max 1 (aops.Ops.events - e0))
      in
      let n0 = !notified in
      let fan_words = words_per cover_events (fun i -> ignore (Broker.publish fan (ev i))) in
      let notif_per_event = float_of_int (!notified - n0) /. float_of_int cover_events in
      let codec_words =
        words_per n_ev (fun i -> ignore (Transport.decode_message Gen.schema (encode i)))
      in
      let bytes =
        Array.fold_left (fun acc s -> acc + String.length s + Codec.frame_header_len) 0 encoded
      in
      let j0 = Journal.size_bytes journal in
      Array.iter (fun r -> Journal.append journal r) records;
      let journal_bytes = float_of_int (Journal.size_bytes journal - j0) /. float_of_int n_ev in
      (* Timed match rungs. *)
      let root = Spans.intern spans "ladder.match" in
      let r_flat = rung spans "flat.match_into"
      and r_engine = rung spans "engine.match_with"
      and r_agg = rung spans "engine.match_with.aggregated"
      and r_bare = rung spans "broker.publish"
      and r_obs = rung spans "broker.publish.observed"
      and r_fan = rung spans "broker.publish.aggregated"
      and r_enc = rung spans "transport.encode_message"
      and r_dec = rung spans "transport.decode_message"
      and r_journal = rung spans "journal.append" in
      round_robin spans ~root ~seconds:(0.5 *. seconds) ~per:128
        [
          (r_flat, fun i -> ignore (Flat.match_into flat cur (ev i)));
          (r_engine, fun i -> Engine.match_with eng (ev i) ~f:no_ids);
          (r_bare, fun i -> ignore (Broker.publish bare (ev i)));
          (r_obs, fun i -> ignore (Broker.publish observed (ev i)));
          (r_agg, fun i -> Engine.match_with agg (ev i) ~f:no_ids);
          (r_fan, fun i -> ignore (Broker.publish fan (ev i)));
          (r_enc, fun i -> ignore (encode i));
          (r_dec, fun i -> ignore (Transport.decode_message Gen.schema encoded.(i land mask)));
          (r_journal, fun i -> Journal.append journal records.(i land mask));
        ];
      (* Churn rungs: toggle each churn profile in and out again, on the
         covering broker's engine (nothing publishes there any more) and
         on the bare broker. *)
      let cover_n = Array.length cover_churn in
      let epoch0 = Engine.epoch agg in
      let ids = Array.make cover_n 0 in
      let add_us =
        op_latencies cover_n (fun i -> ids.(i) <- Engine.add_profile agg cover_churn.(i))
      in
      let remove_us = op_latencies cover_n (fun i -> ignore (Engine.remove_profile agg ids.(i))) in
      let epoch_swaps = Engine.epoch agg - epoch0 in
      let live = Genas_profile.Profile_set.size (Engine.profiles agg) in
      let absorbed_ratio = float_of_int (Engine.absorbed_profiles agg) /. float_of_int (max 1 live) in
      (* One swap can take seconds on range roots: time up to five,
         stopping once a second has gone. *)
      let swap_ms =
        let t_end = Probe.now () + 1_000_000_000 in
        let rec go acc k =
          if k = 5 || (k > 0 && Probe.now () > t_end) then Array.of_list acc
          else begin
            let t0 = Probe.now () in
            Engine.swap_now agg;
            go ((float_of_int (Probe.now () - t0) /. 1000.0) :: acc) (k + 1)
          end
        in
        go [] 0
      in
      let churn_n = Array.length inp.churn in
      let subs = Array.make churn_n None in
      let sub_us =
        op_latencies churn_n (fun i ->
            subs.(i) <-
              Some (Broker.subscribe bare ~subscriber:"churn" ~profile:inp.churn.(i) count))
      in
      let unsub_us =
        op_latencies churn_n (fun i -> ignore (Broker.unsubscribe bare (Option.get subs.(i))))
      in
      (* Wire rungs: a loopback server over the bare twin and one
         publishing client. *)
      let w = Node.serve bare [ "ladder-pub" ] in
      let wire_metrics =
        Fun.protect ~finally:(fun () -> Node.close_wire w) @@ fun () ->
        let c = List.hd w.Node.clients in
        let client_publish i =
          match Broker_client.publish c (ev i) with
          | Ok _ -> ()
          | Error e -> failwith ("ladder publish: " ^ e)
        in
        for i = 0 to 255 do
          client_publish i
        done;
        let reads, writes =
          Probe.syscalls_during (fun () ->
              for i = 0 to n_ev - 1 do
                client_publish i
              done)
        in
        let per x = float_of_int x /. float_of_int n_ev in
        let r_rtt = rung spans "broker_client.publish"
        and r_srv = rung spans "broker_server.publish" in
        round_robin spans ~root:(Spans.intern spans "ladder.wire") ~seconds:(0.3 *. seconds)
          ~per:16
          [
            (r_rtt, client_publish);
            (r_srv, fun i -> ignore (Broker_server.publish w.Node.server [| ev i |]));
          ];
        let rtt = med r_rtt and srv = med r_srv in
        [
          ("transport.write_syscalls_per_event", per writes, "count");
          ("transport.read_syscalls_per_event", per reads, "count");
          ("server.publish_us", srv /. 1000.0, "us");
          ("wire.rtt_us", rtt /. 1000.0, "us");
          ( "wire.wait_us",
            (med_diff r_rtt r_srv -. med r_enc -. med r_dec) /. 1000.0,
            "us" );
        ]
      in
      let flat_ns = med r_flat and engine_ns = med r_engine in
      let per_notification x = x /. Float.max 1.0 notif_per_event in
      [
        ("flat.ns_per_event", flat_ns, "ns");
        ( "flat.comparisons_per_event",
          float_of_int flat_ops.Ops.comparisons /. float_of_int n_ev,
          "count" );
        ("flat.alloc_words_per_event", flat_words, "words");
        ("engine.ns_per_event", engine_ns, "ns");
        ("engine.self_ns_per_event", med_diff r_engine r_flat, "ns");
        ("engine.alloc_words_per_event", engine_words, "words");
        ("engine.agg_ns_per_event", med r_agg, "ns");
        ("engine.agg_alloc_words_per_event", agg_words, "words");
        ("engine.matches_per_event", matches_per_event, "count");
        ("engine.add_profile_us", Probe.median add_us, "us");
        ("engine.remove_profile_us", Probe.median remove_us, "us");
        ("engine.swap_ms", Probe.median swap_ms /. 1000.0, "ms");
        ("engine.epoch_swaps", float_of_int epoch_swaps, "count");
        ("engine.absorbed_ratio", absorbed_ratio, "ratio");
        ("broker.publish_ns_per_event", med r_bare, "ns");
        ("broker.self_ns_per_event", med_diff r_bare r_engine, "ns");
        ("broker.notifications_per_event", notif_per_event, "count");
        ("broker.ns_per_notification", per_notification (med_diff r_fan r_agg), "ns");
        ( "broker.alloc_words_per_notification",
          per_notification (fan_words -. agg_words),
          "words" );
        ("broker.subscribe_us", Probe.median sub_us, "us");
        ("broker.unsubscribe_us", Probe.median unsub_us, "us");
        ("obs.overhead_ns_per_event", med_diff r_obs r_bare, "ns");
        ("obs.alloc_words_per_event", obs_words -. bare_words, "words");
        ("codec.encode_ns_per_event", med r_enc, "ns");
        ("codec.decode_ns_per_event", med r_dec, "ns");
        ("codec.bytes_per_event", float_of_int bytes /. float_of_int n_ev, "B");
        ("codec.alloc_words_per_event", codec_words, "words");
        ("journal.append_us", med r_journal /. 1000.0, "us");
        ("journal.bytes_per_event", journal_bytes, "B");
      ]
      @ wire_metrics)
