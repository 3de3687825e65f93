(* Delivery supervision and deterministic fault injection: retry and
   backoff determinism, circuit-breaker lifecycle, dead-letter bounds,
   link faults on routed networks, and the differential guarantee that
   a zero-probability fault plan changes nothing. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Ops = Genas_filter.Ops
module Broker = Genas_ens.Broker
module Router = Genas_ens.Router
module Notification = Genas_ens.Notification
module Fault = Genas_ens.Fault
module Supervise = Genas_ens.Supervise
module Deadletter = Genas_ens.Deadletter
module Prng = Genas_prng.Prng

let schema () =
  Schema.create_exn
    [ ("x", Domain.int_range ~lo:0 ~hi:9); ("k", Domain.enum [ "a"; "b" ]) ]

let event ?(time = 0.0) s x k =
  Event.create_exn ~time s [ ("x", Value.Int x); ("k", Value.Str k) ]

let notification s =
  Notification.make ~event:(event s 1 "a")
    ~origin:(Notification.Primitive 0) ~subscriber:"n" ()

(* --- plan validation ------------------------------------------------ *)

let test_plan_validation () =
  let expect_invalid what spec =
    match Fault.plan ~seed:1 spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect_invalid "probability above one"
    { Fault.none with Fault.handler_failure = [ ("a", 1.5) ] };
  expect_invalid "negative probability"
    { Fault.none with Fault.link_drop = -0.1 };
  expect_invalid "link probabilities above one"
    { Fault.none with Fault.link_drop = 0.5; link_duplicate = 0.4;
      link_delay = 0.2 };
  (* The boundary case is legal. *)
  ignore
    (Fault.plan ~seed:1
       { Fault.none with Fault.link_drop = 0.5; link_duplicate = 0.5 })

let test_policy_validation () =
  let expect_invalid what policy =
    match Supervise.create ~policy ~prefix:"t" () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect_invalid "zero attempts" (Supervise.retry_policy ~max_attempts:0 ());
  expect_invalid "shrinking multiplier" (Supervise.retry_policy ~multiplier:0.5 ());
  expect_invalid "jitter above one" (Supervise.retry_policy ~jitter:1.5 ());
  expect_invalid "tripping without cooldown"
    (Supervise.retry_policy ~trip_after:2 ~cooldown:0 ())

(* --- retry and backoff --------------------------------------------- *)

let test_retry_then_succeed () =
  let s = schema () in
  let sup =
    Supervise.create ~policy:(Supervise.retry_policy ~max_attempts:3 ())
      ~prefix:"t" ()
  in
  let calls = ref 0 in
  let handler _ =
    incr calls;
    if !calls <= 2 then failwith "transient"
  in
  Alcotest.(check bool) "eventually delivered" true
    (Supervise.deliver sup ~subscriber:"flappy" ~handler (notification s));
  Alcotest.(check int) "three attempts made" 3 !calls;
  Alcotest.(check int) "two failed attempts" 2 (Supervise.failures sup);
  Alcotest.(check int) "two retries" 2 (Supervise.retries sup);
  Alcotest.(check int) "delivered" 1 (Supervise.delivered sup);
  Alcotest.(check int) "nothing dead-lettered" 0 (Supervise.deadlettered sup);
  match Supervise.trace sup with
  | [ r ] ->
    Alcotest.(check int) "attempts in record" 3 r.Supervise.attempts;
    Alcotest.(check int) "backoffs recorded" 2
      (List.length r.Supervise.backoffs_ns);
    (* Exponential base with jitter shrinking at most half: each
       backoff lies in (base/2, base]. *)
    List.iteri
      (fun i b ->
        let base = 1_000_000.0 *. (2.0 ** float_of_int i) in
        Alcotest.(check bool)
          (Printf.sprintf "backoff %d in range" i)
          true
          (b > (base /. 2.0) -. 1.0 && b <= base))
      r.Supervise.backoffs_ns
  | l -> Alcotest.failf "expected 1 trace record, got %d" (List.length l)

let test_backoff_determinism () =
  let s = schema () in
  let run () =
    let sup =
      Supervise.create
        ~policy:(Supervise.retry_policy ~max_attempts:4 ~jitter_seed:99 ())
        ~prefix:"t" ()
    in
    for _ = 1 to 5 do
      ignore
        (Supervise.deliver sup ~subscriber:"dead"
           ~handler:(fun _ -> failwith "always")
           (notification s))
    done;
    List.map (fun r -> r.Supervise.backoffs_ns) (Supervise.trace sup)
  in
  Alcotest.(check bool) "identical backoff schedule" true (run () = run ())

(* A fixed delivery script: every supervisor outcome, printed with
   backoffs in hex so the comparison is bit-exact. *)
let delivery_script policy =
  let s = schema () in
  let sup = Supervise.create ~policy ~prefix:"t" () in
  let flaky () =
    let calls = ref 0 in
    fun _ ->
      incr calls;
      if !calls = 1 then failwith "first attempt"
  in
  let deliver subscriber handler =
    ignore (Supervise.deliver sup ~subscriber ~handler (notification s))
  in
  deliver "clean" ignore;
  deliver "flaky" (flaky ());
  deliver "dead" (fun _ -> failwith "always");
  deliver "clean" ignore;
  deliver "flaky2" (flaky ());
  for _ = 1 to 4 do
    deliver "dead" (fun _ -> failwith "always")
  done;
  deliver "flaky3" (flaky ());
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Printf.bprintf b "#%d %s %d [%s] %s %s\n" r.Supervise.seq
        r.Supervise.subscriber r.Supervise.attempts
        (String.concat ";" (List.map (Printf.sprintf "%h") r.Supervise.backoffs_ns))
        (Format.asprintf "%a" Supervise.pp_outcome r.Supervise.outcome)
        (Option.value ~default:"-" r.Supervise.error))
    (Supervise.trace sup);
  let e = Supervise.export sup in
  Printf.bprintf b "deliveries=%d delivered=%d failures=%d retries=%d \
                    deadlettered=%d short=%d trips=%d draws=%d\n"
    e.Supervise.Export.deliveries e.Supervise.Export.delivered
    e.Supervise.Export.failures e.Supervise.Export.retries
    e.Supervise.Export.deadlettered e.Supervise.Export.short_circuited
    e.Supervise.Export.trips e.Supervise.Export.jitter_draws;
  List.iter
    (fun (name, state, count) ->
      Printf.bprintf b "circuit %s %s %d\n" name
        (match state with
        | Supervise.Closed -> "closed"
        | Supervise.Open -> "open"
        | Supervise.Half_open -> "half-open")
        count)
    e.Supervise.Export.circuits;
  List.iter
    (fun (d : Deadletter.entry) ->
      Printf.bprintf b "dlq #%d %d %s\n" d.Deadletter.seq d.Deadletter.attempts
        d.Deadletter.error)
    (Deadletter.entries (Supervise.deadletter sup));
  Buffer.contents b

(* Pinned from the supervisor before a clean first attempt became a
   straight-line path: retries, backoffs, jitter draws, circuits and
   dead letters must come out bit-identical, breaker off and on. *)
let test_delivery_golden () =
  Alcotest.(check string) "breaker off"
    {|#1 flaky 2 [0x1.decbf43eae2a2p+19] delivered -
#2 dead 3 [0x1.9707ee429a719p+19;0x1.8f3f624c466ffp+20] failed Failure("always")
#4 flaky2 2 [0x1.7caf663ebd79bp+19] delivered -
#5 dead 3 [0x1.dce2fb5c5ae66p+19;0x1.8df354a36ba53p+20] failed Failure("always")
#6 dead 3 [0x1.c0c6758b3cd89p+19;0x1.d69a31dbad232p+20] failed Failure("always")
#7 dead 3 [0x1.17c65f69d9772p+19;0x1.ac6063f289a72p+20] failed Failure("always")
#8 dead 3 [0x1.93bd5e8067a01p+19;0x1.87dc48fd1fd75p+20] failed Failure("always")
#9 flaky3 2 [0x1.c733ed6d4e588p+19] delivered -
deliveries=10 delivered=5 failures=18 retries=13 deadlettered=5 short=0 trips=0 draws=13
dlq #2 3 Failure("always")
dlq #5 3 Failure("always")
dlq #6 3 Failure("always")
dlq #7 3 Failure("always")
dlq #8 3 Failure("always")
|}
    (delivery_script (Supervise.retry_policy ~max_attempts:3 ()));
  Alcotest.(check string) "breaker on"
    {|#1 flaky 2 [0x1.decbf43eae2a2p+19] delivered -
#2 dead 3 [0x1.9707ee429a719p+19;0x1.8f3f624c466ffp+20] failed Failure("always")
#4 flaky2 2 [0x1.7caf663ebd79bp+19] delivered -
#5 dead 0 [] short-circuited circuit open
#6 dead 1 [] failed Failure("always")
#7 dead 0 [] short-circuited circuit open
#8 dead 1 [] failed Failure("always")
#9 flaky3 2 [0x1.dce2fb5c5ae66p+19] delivered -
deliveries=10 delivered=5 failures=8 retries=5 deadlettered=5 short=2 trips=3 draws=5
circuit clean closed 0
circuit dead open 0
circuit flaky closed 0
circuit flaky2 closed 0
circuit flaky3 closed 0
dlq #2 3 Failure("always")
dlq #5 0 circuit open
dlq #6 1 Failure("always")
dlq #7 0 circuit open
dlq #8 1 Failure("always")
|}
    (delivery_script
       (Supervise.retry_policy ~max_attempts:3 ~trip_after:1 ~cooldown:2 ()))

(* A handler that publishes again sees its own delivery already
   counted, and so does the nested delivery. *)
let test_reentrant_deliveries () =
  let s = schema () in
  let b = Broker.create s in
  let seen = ref [] in
  let count _ = seen := Supervise.deliveries (Broker.supervisor b) :: !seen in
  let eq x =
    Profile.create_exn s [ ("x", Predicate.Eq (Value.Int x)) ]
  in
  ignore (Broker.subscribe b ~subscriber:"inner" ~profile:(eq 2) count);
  ignore
    (Broker.subscribe b ~subscriber:"outer" ~profile:(eq 1) (fun n ->
         count n;
         ignore (Broker.publish b (event s 2 "a"));
         count n));
  ignore (Broker.publish b (event s 1 "a"));
  Alcotest.(check (list int)) "deliveries seen (outer, inner, outer)"
    [ 1; 2; 2 ] (List.rev !seen)

(* Allocation contract: a clean delivery (no fault plan, no active
   trace, breaker off or circuit closed) with a handler that allocates
   nothing leaves nothing on the minor heap. *)
let clean_delivery_words policy =
  let s = schema () in
  let sup = Supervise.create ~policy ~prefix:"t" () in
  let n = notification s in
  let handler (_ : Notification.t) = () in
  let run () =
    for _ = 1 to 1000 do
      ignore (Supervise.deliver sup ~subscriber:"s" ~handler n)
    done
  in
  run ();
  let words = Genas_testlib.Alloc.minor_words run in
  Alcotest.(check int) "all delivered" 2000 (Supervise.delivered sup);
  words

let test_clean_delivery_allocates_nothing () =
  Alcotest.(check (float 0.0)) "breaker off: minor words over 1000" 0.0
    (clean_delivery_words Supervise.default_policy);
  Alcotest.(check (float 0.0)) "breaker on: minor words over 1000" 0.0
    (clean_delivery_words (Supervise.retry_policy ~trip_after:2 ()))

(* --- injected handler faults --------------------------------------- *)

let test_injected_handler_fault () =
  let s = schema () in
  let faults =
    Fault.plan ~seed:11
      { Fault.none with Fault.handler_failure = [ ("alice", 1.0) ] }
  in
  let b = Broker.create ~faults s in
  let alice_ran = ref false and bob_ran = ref 0 in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"alice" "x >= 0" (fun _ ->
           alice_ran := true))
  in
  let _ =
    Result.get_ok
      (Broker.subscribe_text b ~subscriber:"bob" "x >= 0" (fun _ -> incr bob_ran))
  in
  for i = 0 to 4 do
    ignore (Broker.publish b (event s (i mod 10) "a"))
  done;
  Alcotest.(check bool) "alice's handler never even ran" false !alice_ran;
  Alcotest.(check int) "bob delivered every time" 5 !bob_ran;
  Alcotest.(check int) "alice dead-lettered every time" 5
    (Deadletter.length (Broker.deadletter b));
  Deadletter.iter (Broker.deadletter b) (fun e ->
      Alcotest.(check string) "injected error" "injected: alice"
        e.Deadletter.error);
  Alcotest.(check int) "notifications count bob only" 5 (Broker.notifications b)

let test_fault_trace_determinism () =
  let s = schema () in
  let spec =
    { Fault.none with Fault.handler_failure = [ ("alice", 0.4) ] }
  in
  let run () =
    let faults = Fault.plan ~seed:21 spec in
    let b =
      Broker.create ~faults
        ~retry:(Supervise.retry_policy ~max_attempts:2 ~jitter_seed:21 ())
        s
    in
    let _ =
      Result.get_ok
        (Broker.subscribe_text b ~subscriber:"alice" "x >= 0" (fun _ -> ()))
    in
    for i = 0 to 39 do
      ignore (Broker.publish b (event ~time:(float_of_int i) s (i mod 10) "a"))
    done;
    let sup = Broker.supervisor b in
    ( List.map (Format.asprintf "%a" Fault.pp_fault) (Fault.trace faults),
      List.map (Format.asprintf "%a" Supervise.pp_record) (Supervise.trace sup),
      List.map
        (fun e -> (e.Deadletter.seq, e.Deadletter.attempts, e.Deadletter.error))
        (Deadletter.entries (Broker.deadletter b)),
      (Supervise.failures sup, Supervise.retries sup, Supervise.deadlettered sup)
    )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical fault run" true (a = b);
  let faults, records, dlq, (failures, _, _) = a in
  Alcotest.(check bool) "some faults actually fired" true
    (List.length faults > 0 && failures > 0 && List.length records > 0);
  Alcotest.(check bool) "dead letters present" true (List.length dlq > 0)

(* --- circuit breaker ------------------------------------------------ *)

let test_circuit_breaker_lifecycle () =
  let s = schema () in
  let sup =
    Supervise.create
      ~policy:(Supervise.retry_policy ~max_attempts:1 ~trip_after:2 ~cooldown:2 ())
      ~prefix:"t" ()
  in
  let failing = ref true in
  let calls = ref 0 in
  let handler _ =
    incr calls;
    if !failing then failwith "down"
  in
  let deliver () =
    Supervise.deliver sup ~subscriber:"shaky" ~handler (notification s)
  in
  (* Two consecutive terminal failures trip the breaker. *)
  Alcotest.(check bool) "first failure" false (deliver ());
  Alcotest.(check Alcotest.bool) "still closed" true
    (Supervise.circuit sup "shaky" = Supervise.Closed);
  Alcotest.(check bool) "second failure" false (deliver ());
  Alcotest.(check bool) "tripped" true
    (Supervise.circuit sup "shaky" = Supervise.Open);
  Alcotest.(check int) "one trip" 1 (Supervise.trips sup);
  (* While open, deliveries are short-circuited without invoking the
     handler, and dead-lettered with zero attempts. *)
  let before = !calls in
  Alcotest.(check bool) "short-circuited" false (deliver ());
  Alcotest.(check int) "handler skipped" before !calls;
  Alcotest.(check int) "one short circuit" 1 (Supervise.short_circuited sup);
  (* The cooldown elapses: next delivery is a half-open probe, and a
     successful probe closes the circuit. *)
  failing := false;
  Alcotest.(check bool) "probe delivers" true (deliver ());
  Alcotest.(check bool) "closed again" true
    (Supervise.circuit sup "shaky" = Supervise.Closed);
  (* A failing probe re-trips instead. *)
  failing := true;
  Alcotest.(check bool) "fail once" false (deliver ());
  Alcotest.(check bool) "fail twice -> open" false (deliver ());
  Alcotest.(check int) "second trip" 2 (Supervise.trips sup);
  ignore (deliver ());  (* short-circuit consumes the cooldown *)
  Alcotest.(check bool) "failing probe" false (deliver ());
  Alcotest.(check bool) "reopened" true
    (Supervise.circuit sup "shaky" = Supervise.Open);
  Alcotest.(check int) "re-trip counted" 3 (Supervise.trips sup)

(* Half-open discipline: after the cooldown the supervisor risks
   exactly one probe attempt — the policy's retry budget does not apply
   to probes — and a failing probe re-opens the circuit immediately. *)
let test_half_open_single_probe () =
  let s = schema () in
  let sup =
    Supervise.create
      ~policy:(Supervise.retry_policy ~max_attempts:3 ~trip_after:2 ~cooldown:2 ())
      ~prefix:"t" ()
  in
  let calls = ref 0 in
  let handler _ =
    incr calls;
    failwith "down"
  in
  let deliver () =
    Supervise.deliver sup ~subscriber:"shaky" ~handler (notification s)
  in
  (* Two terminal failures (three attempts each) trip the breaker. *)
  ignore (deliver ());
  ignore (deliver ());
  Alcotest.(check bool) "tripped" true
    (Supervise.circuit sup "shaky" = Supervise.Open);
  Alcotest.(check int) "three attempts per terminal failure" 6 !calls;
  let retries_before = Supervise.retries sup in
  Alcotest.(check int) "two retries per terminal failure" 4 retries_before;
  (* A short-circuited delivery consumes the cooldown without touching
     the handler. *)
  ignore (deliver ());
  Alcotest.(check int) "short circuit skips the handler" 6 !calls;
  (* The next delivery is the half-open probe: exactly one attempt,
     even though the policy allows three, and no retries are burned. *)
  Alcotest.(check bool) "probe fails" false (deliver ());
  Alcotest.(check int) "exactly one probe attempt" 7 !calls;
  Alcotest.(check int) "no retry budget consumed" retries_before
    (Supervise.retries sup);
  Alcotest.(check bool) "probe failure re-opens" true
    (Supervise.circuit sup "shaky" = Supervise.Open);
  match List.rev (Deadletter.entries (Supervise.deadletter sup)) with
  | e :: _ ->
    Alcotest.(check int) "probe dead-lettered after one attempt" 1
      e.Deadletter.attempts
  | [] -> Alcotest.fail "expected the probe's dead letter"

(* --- dead-letter bounds --------------------------------------------- *)

let test_deadletter_bounds () =
  let s = schema () in
  let sup = Supervise.create ~deadletter_capacity:2 ~prefix:"t" () in
  for _ = 1 to 3 do
    ignore
      (Supervise.deliver sup ~subscriber:"gone"
         ~handler:(fun _ -> failwith "nope")
         (notification s))
  done;
  let dlq = Supervise.deadletter sup in
  Alcotest.(check int) "bounded length" 2 (Deadletter.length dlq);
  Alcotest.(check int) "one evicted" 1 (Deadletter.dropped dlq);
  Alcotest.(check int) "all pushes counted" 3 (Deadletter.total dlq);
  (* Eviction is oldest-first: the survivors are deliveries 1 and 2. *)
  Alcotest.(check (list int)) "oldest evicted" [ 1; 2 ]
    (List.map (fun e -> e.Deadletter.seq) (Deadletter.entries dlq));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Deadletter.create: negative capacity") (fun () ->
      ignore (Deadletter.create ~capacity:(-1) ()))

(* --- link faults on a routed network -------------------------------- *)

let line_with spec =
  let s = schema () in
  let faults = Fault.plan ~seed:3 spec in
  let net = Router.line s ~nodes:3 ~faults in
  let hits = ref 0 in
  ignore
    (Router.subscribe net ~at:2 ~subscriber:"edge"
       ~profile:(Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 5)) ])
       (fun _ -> incr hits));
  (s, net, hits)

let test_link_drop () =
  let s, net, hits = line_with { Fault.none with Fault.link_drop = 1.0 } in
  Alcotest.(check int) "nothing arrives" 0 (Router.publish net ~at:0 (event s 7 "a"));
  Alcotest.(check int) "handler silent" 0 !hits;
  Alcotest.(check int) "first hop dropped" 1 (Router.link_drops net);
  (* The dropped message still went out on the wire. *)
  Alcotest.(check int) "send counted" 1 (Router.event_messages net)

let test_link_duplicate () =
  let s, net, hits = line_with { Fault.none with Fault.link_duplicate = 1.0 } in
  (* Both hops duplicate: 2 copies reach node 1, each spawns 2 at
     node 2 -> 4 deliveries from 3 duplicated forwards. *)
  Alcotest.(check int) "amplified delivery" 4
    (Router.publish net ~at:0 (event s 7 "a"));
  Alcotest.(check int) "handler ran four times" 4 !hits;
  Alcotest.(check int) "three forwards duplicated" 3 (Router.link_duplicates net);
  Alcotest.(check int) "duplicates are wire messages" 6 (Router.event_messages net)

let test_link_delay () =
  let s, net, hits = line_with { Fault.none with Fault.link_delay = 1.0 } in
  (* Delays park the hop but it still drains within the publish. *)
  Alcotest.(check int) "delivered despite delays" 1
    (Router.publish net ~at:0 (event s 7 "a"));
  Alcotest.(check int) "handler ran" 1 !hits;
  Alcotest.(check int) "both hops delayed" 2 (Router.link_delays net)

let test_broker_pause () =
  let s, net, hits = line_with { Fault.none with Fault.broker_pause = 1.0 } in
  (* Every broker pauses each arrival once; the deferred retry then
     proceeds, so even pause probability 1.0 terminates. *)
  Alcotest.(check int) "delivered despite pauses" 1
    (Router.publish net ~at:0 (event s 7 "a"));
  Alcotest.(check int) "handler ran" 1 !hits;
  Alcotest.(check int) "three brokers paused" 3 (Router.broker_pauses net)

let test_routed_fault_determinism () =
  let s = schema () in
  let spec =
    {
      Fault.none with
      Fault.handler_failure = [ ("edge", 0.3) ];
      link_drop = 0.2;
      link_duplicate = 0.1;
      link_delay = 0.1;
      broker_pause = 0.1;
    }
  in
  let run () =
    let faults = Fault.plan ~seed:17 spec in
    let net =
      Router.line s ~nodes:4 ~faults
        ~retry:(Supervise.retry_policy ~max_attempts:2 ~jitter_seed:17 ())
    in
    let order = ref [] in
    ignore
      (Router.subscribe net ~at:3 ~subscriber:"edge"
         ~profile:(Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 3)) ])
         (fun n -> order := Event.seq n.Notification.event :: !order));
    for i = 0 to 59 do
      ignore
        (Router.publish net ~at:(i mod 4)
           (event ~time:(float_of_int i) s (i mod 10) "a"))
    done;
    ( List.rev !order,
      Router.notifications net,
      Router.event_messages net,
      (Router.link_drops net, Router.link_duplicates net, Router.link_delays net,
       Router.broker_pauses net),
      List.map (Format.asprintf "%a" Fault.pp_fault) (Fault.trace faults),
      List.map
        (Format.asprintf "%a" Supervise.pp_record)
        (Supervise.trace (Router.supervisor net)) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical routed fault run" true (a = b);
  let _, _, _, (drops, dups, delays, pauses), faults, _ = a in
  Alcotest.(check bool) "all fault kinds exercised" true
    (drops > 0 && dups > 0 && delays > 0 && pauses > 0
    && List.length faults > 0)

(* --- differential: a zero-probability plan changes nothing ----------- *)

let test_zero_plan_differential_broker () =
  let s = schema () in
  let run faults =
    let b = match faults with None -> Broker.create s | Some f -> Broker.create ~faults:f s in
    let log = ref [] in
    let subscribe who text =
      ignore
        (Result.get_ok
           (Broker.subscribe_text b ~subscriber:who text (fun n ->
                log := (n.Notification.subscriber, Event.seq n.Notification.event) :: !log)))
    in
    subscribe "alice" "x >= 5";
    subscribe "bob" "k = a";
    subscribe "carol" "x <= 2 && k = b";
    for i = 0 to 49 do
      ignore
        (Broker.publish b
           (event ~time:(float_of_int i) s (i mod 10) (if i mod 3 = 0 then "a" else "b")))
    done;
    let ops = Broker.ops b in
    ( List.rev !log,
      Broker.published b,
      Broker.notifications b,
      (ops.Ops.comparisons, ops.Ops.node_visits, ops.Ops.events, ops.Ops.matches) )
  in
  let plain = run None in
  let zeroed = run (Some (Fault.plan ~seed:5 Fault.none)) in
  Alcotest.(check bool)
    "no-op plan: identical deliveries and comparison counters" true
    (plain = zeroed)

let test_zero_plan_differential_router () =
  let s = schema () in
  let run faults =
    let net =
      match faults with
      | None -> Router.line s ~nodes:4
      | Some f -> Router.line s ~nodes:4 ~faults:f
    in
    let log = ref [] in
    List.iter
      (fun (at, who, lo) ->
        ignore
          (Router.subscribe net ~at ~subscriber:who
             ~profile:(Profile.create_exn s [ ("x", Predicate.Ge (Value.Int lo)) ])
             (fun n ->
               log :=
                 (n.Notification.subscriber, n.Notification.broker,
                  Event.seq n.Notification.event)
                 :: !log)))
      [ (0, "a", 2); (2, "b", 5); (3, "c", 8) ];
    for i = 0 to 49 do
      ignore
        (Router.publish net ~at:(i mod 4)
           (event ~time:(float_of_int i) s (i mod 10) "a"))
    done;
    ( List.rev !log,
      Router.notifications net,
      Router.event_messages net,
      Router.sub_messages net )
  in
  let plain = run None in
  let zeroed = run (Some (Fault.plan ~seed:5 Fault.none)) in
  Alcotest.(check bool)
    "no-op plan: identical routed delivery order and message counts" true
    (plain = zeroed)

let () =
  Alcotest.run "fault"
    [
      ( "validation",
        [
          Alcotest.test_case "fault plan" `Quick test_plan_validation;
          Alcotest.test_case "retry policy" `Quick test_policy_validation;
        ] );
      ( "retry",
        [
          Alcotest.test_case "retry then succeed" `Quick test_retry_then_succeed;
          Alcotest.test_case "backoff determinism" `Quick test_backoff_determinism;
          Alcotest.test_case "delivery golden" `Quick test_delivery_golden;
          Alcotest.test_case "re-entrant publish counts its delivery" `Quick
            test_reentrant_deliveries;
        ] );
      ( "injection",
        [
          Alcotest.test_case "injected handler fault" `Quick
            test_injected_handler_fault;
          Alcotest.test_case "fault trace determinism" `Quick
            test_fault_trace_determinism;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "lifecycle" `Quick test_circuit_breaker_lifecycle;
          Alcotest.test_case "half-open single probe" `Quick
            test_half_open_single_probe;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "clean delivery allocates 0 words" `Quick
            test_clean_delivery_allocates_nothing;
        ] );
      ( "deadletter",
        [ Alcotest.test_case "bounds" `Quick test_deadletter_bounds ] );
      ( "links",
        [
          Alcotest.test_case "drop" `Quick test_link_drop;
          Alcotest.test_case "duplicate" `Quick test_link_duplicate;
          Alcotest.test_case "delay" `Quick test_link_delay;
          Alcotest.test_case "broker pause" `Quick test_broker_pause;
          Alcotest.test_case "routed determinism" `Quick
            test_routed_fault_determinism;
        ] );
      ( "differential",
        [
          Alcotest.test_case "broker zero plan" `Quick
            test_zero_plan_differential_broker;
          Alcotest.test_case "router zero plan" `Quick
            test_zero_plan_differential_router;
        ] );
    ]
