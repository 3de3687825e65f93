(* The repository benchmark: one workload per run, built from a seed.

     main.exe --workload classic|fanout-churn|wire --seed N --seconds S --trace 0|1

   The run generates its inputs from the seed (Gen), sets the node up,
   warms up on one pass of the event pool, makes one untimed exact pass
   (allocated words and comparisons per event), then either drives the
   closed loop (--trace 0: end-to-end metrics; further set-ups between
   its segments give setup_s as a median) or times the layer ladder on
   the same inputs (--trace 1: per-layer metrics, spans written to
   repobench/out/). Outputs are checked against a reference matcher
   throughout; the last line of stdout is the JSON result. *)

module Event = Genas_model.Event
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Lang = Genas_profile.Lang
module Naive = Genas_filter.Naive
module Broker = Genas_ens.Broker
module Broker_client = Genas_ens.Broker_client
module Notification = Genas_ens.Notification
module Deadletter = Genas_ens.Deadletter

let pool_size = 4096

let mask = pool_size - 1

(* {1 Run state} *)

let attempted = ref 0

let failed = ref 0

let fail () = incr failed

let published = ref 0

let notified = ref 0

(* Latencies are recorded only while the closed loop is measured; the
   warm-up and exact passes run the same code with recording off. *)
let measuring = ref false

(* Reference checks that allocate are skipped in the exact pass, so the
   allocation count is the program's alone. *)
let exact_pass = ref false

let pct h p = fst (Probe.percentile h p)

(* The closed loop runs in segments, and every timing figure sums up
   the segments' figures (see [summary]). *)
let segments = 60

(* After every [setup_every]-th segment, a set-up is timed and, where
   the loop does not churn, a burst of churn ops. *)
let setup_every = 3

(* A latency histogram per segment, emptied after each segment into the
   run's total; [figures] holds each segment's (p50, tail) in µs. *)
type lat = { seg : Probe.hist; all : Probe.hist; mutable figures : (float * float) list }

let lat () = { seg = Probe.hist (); all = Probe.hist (); figures = [] }

let pub_l = lat ()

let deliver_l = lat ()

let churn_l = lat ()

let end_segment ~tail l =
  if l.seg.Probe.total > 0 then l.figures <- (pct l.seg 50.0, pct l.seg tail) :: l.figures;
  Probe.add_into l.all l.seg;
  Probe.clear l.seg

(* How a run sums up its segments' timing figures. [Best]: the best
   segment's, the highest rate and the lowest percentile. A lone
   thread only ever loses time to the other tenants of a virtual
   machine's host, which slow it by up to a half for seconds to minutes;
   the best of many segments is its speed with the least of that, and
   moves less from run to run than a median, which follows the host.
   [Median]: the median segment's. Where threads hand work to each
   other across CPUs, how the host schedules them also makes single
   segments luckily fast, and the best segment is an outlier that the
   median is not. *)
type summary = Best | Median

let sum_up summary ~higher xs =
  match summary with
  | Median -> Probe.median xs
  | Best ->
    Array.fold_left (if higher then Float.max else Float.min)
      (if higher then neg_infinity else infinity) xs

(* [sum_up] over the segments of a figure of [l]. *)
let summed summary f l = sum_up summary ~higher:false (Array.of_list (List.map f l.figures))

(* Time excluded from the loop's wall clock (reference checks). *)
let check_ns = ref 0

(* Start of the publish call in flight, for in-process delivery latency. *)
let pub_start = ref 0

let counting_handler (_ : Notification.t) =
  incr notified;
  if !measuring then Probe.record deliver_l.seg (Probe.now () - !pub_start)

(* Time one churn operation. *)
let churn_op f =
  incr attempted;
  let t0 = Probe.now () in
  (match f () with () -> () | exception _ -> fail ());
  if !measuring then Probe.record churn_l.seg (Probe.now () - t0)

(* One churn op replaces a subscription: subscribe the next profile of
   [pool], then unsubscribe the oldest live subscription taken from it.
   [window] of them stay live between ops (with 0, an op unsubscribes
   what it just subscribed). Timing the pair keeps the latency
   distribution unimodal, so its median is steady; the two halves are
   timed apart as broker.subscribe_us and broker.unsubscribe_us in the
   traced run. *)
let replacer ~window ~subscribe ~unsubscribe pool =
  let live = Queue.create () and next = ref 0 in
  let sub () =
    Queue.push (subscribe pool.(!next mod Array.length pool)) live;
    incr next
  in
  for _ = 1 to window do
    sub ()
  done;
  (live, fun () -> churn_op (fun () -> sub (); unsubscribe (Queue.pop live)))

(* {1 Workloads} *)

type node = {
  step : int -> unit;  (** one closed-loop operation on pool index i *)
  probe : (unit -> unit) option;  (** a churn op, when churn is not in [step] *)
  comparisons : unit -> int;
  deadletters : unit -> int;
  settle : unit -> unit;  (** wait for in-flight deliveries; count misses *)
  close : unit -> unit;
}

type workload = {
  name : string;
  tail : float;
      (** percentile printed as the tail, chosen when the benchmark was
          defined (README.md) and fixed since *)
  summary : summary;
  warm : int;
  exact : int;
  ladder : Ladder.inputs;
  setup : unit -> node;
}

let naive_counts profiles events =
  let pset = Profile_set.create Gen.schema in
  Array.iter (fun p -> ignore (Profile_set.add pset p)) profiles;
  let nv = Naive.build pset in
  Array.map (fun e -> List.length (Naive.match_event nv e)) events

(* Publish one event; [expected] < 0 leaves the count unchecked. *)
let publish_checked b e expected =
  incr attempted;
  let t0 = Probe.now () in
  pub_start := t0;
  match Broker.publish b e with
  | n ->
    if !measuring then Probe.record pub_l.seg (Probe.now () - t0);
    incr published;
    if expected >= 0 && n <> expected then fail ();
    n
  | exception _ ->
    fail ();
    0

let classic_profiles = 500

(* The covering population the ladder's aggregation, churn and fan-out
   rungs run on, from a seed drawn last from [r] so that the workload's
   own draws stay as they are. Generated only by a traced run. *)
let covering_of r =
  let seed = Int64.to_int (Gen.bits r) in
  lazy (Gen.covering (Gen.rng seed))

let classic seed =
  let r = Gen.rng seed in
  let profiles = Gen.classic_profiles r classic_profiles in
  let churn = Gen.classic_profiles r 256 in
  let events = Gen.events r pool_size in
  let covering = covering_of r in
  let expected = naive_counts profiles events in
  let cfg = { Node.aggregate = false; observed = true; journaled = false } in
  let setup () =
    let b = Node.broker cfg profiles counting_handler in
    let _, probe =
      replacer ~window:0 churn
        ~subscribe:(fun p -> Broker.subscribe b ~subscriber:"churn" ~profile:p counting_handler)
        ~unsubscribe:(fun id -> ignore (Broker.unsubscribe b id))
    in
    {
      step = (fun i -> ignore (publish_checked b events.(i land mask) expected.(i land mask)));
      probe = Some probe;
      comparisons = (fun () -> (Broker.ops b).Genas_filter.Ops.comparisons);
      deadletters = (fun () -> Deadletter.total (Broker.deadletter b));
      settle = ignore;
      close = (fun () -> Broker.close b);
    }
  in
  { name = "classic"; tail = 99.0; summary = Best; warm = pool_size; exact = pool_size; ladder = { cfg; profiles; churn; events; covering }; setup }

(* About 20k covering-heavy subscriptions (512 windows collapsing to
   ~230 roots); each publish is followed by one churn op, replacing the
   oldest of 256 extra specializations by a new one.
   Churned profiles are covered by existing roots, so churn moves the
   lattice but never forces an epoch swap: over these range roots one
   swap recompiles for seconds, which would swamp the loop. *)
let fanout seed =
  let r = Gen.rng seed in
  let profiles, churn = Gen.covering r in
  let events = Gen.events r pool_size in
  let base =
    let pset = Profile_set.create Gen.schema in
    Array.iter (fun p -> ignore (Profile_set.add pset p)) profiles;
    Naive.build pset
  in
  let cfg = { Node.aggregate = true; observed = false; journaled = false } in
  let setup () =
    let b = Node.broker cfg profiles counting_handler in
    let live, replace =
      replacer ~window:256 churn
        ~subscribe:(fun p ->
          (p, Broker.subscribe b ~subscriber:"churn" ~profile:p counting_handler))
        ~unsubscribe:(fun (_, id) -> ignore (Broker.unsubscribe b id))
    in
    (* Reference: the naive matcher over the base population plus the
       toggled subscriptions live right now. *)
    let reference e =
      List.length (Naive.match_event base e)
      + Queue.fold (fun acc (p, _) -> if Profile.matches Gen.schema p e then acc + 1 else acc) 0 live
    in
    let step i =
      let e = events.(i land mask) in
      let n = publish_checked b e (-1) in
      if (not !exact_pass) && i land 63 = 0 then begin
        let t0 = Probe.now () in
        incr attempted;
        if n <> reference e then fail ();
        check_ns := !check_ns + (Probe.now () - t0)
      end;
      replace ()
    in
    {
      step;
      probe = None;
      comparisons = (fun () -> (Broker.ops b).Genas_filter.Ops.comparisons);
      deadletters = (fun () -> Deadletter.total (Broker.deadletter b));
      settle = ignore;
      close = (fun () -> Broker.close b);
    }
  in
  let covering = Lazy.from_val (profiles, churn) in
  { name = "fanout-churn"; tail = 95.0; summary = Best; warm = 512; exact = 512; ladder = { cfg; profiles; churn; events; covering }; setup }

(* A journaled server holding the classic profiles; one client publishes
   with an ack per event, another holds 50 forwarded subscriptions and
   receives on its own thread. *)
let wire seed =
  let r = Gen.rng seed in
  let profiles = Gen.classic_profiles r classic_profiles in
  let churn = Gen.classic_profiles r 256 in
  let events = Gen.events r pool_size in
  let remote = Gen.classic_profiles r 50 in
  let covering = covering_of r in
  let expected_local = naive_counts profiles events in
  let expected_remote = naive_counts remote events in
  let cfg = { Node.aggregate = false; observed = false; journaled = true } in
  let setup () =
    let dir = Node.scratch "wire" in
    let server_notified = ref 0 and server_expected = ref 0 in
    let b =
      Node.broker ~journal_dir:dir cfg profiles (fun _ ->
          incr server_notified;
          incr notified)
    in
    let w =
      try Node.serve b [ "pub"; "sub" ]
      with e ->
        Broker.close b;
        Node.rm_rf dir;
        raise e
    in
    let pub = List.nth w.Node.clients 0 and sub = List.nth w.Node.clients 1 in
    (* Deliveries still owed to the subscriber, by event seq. *)
    let outstanding = Hashtbl.create 64 and lock = Mutex.create () in
    let unexpected = ref 0 in
    let ring = 65535 in
    let starts = Array.make (ring + 1) 0 in
    let on_deliver (n : Notification.t) =
      let k = n.Notification.event.Event.seq in
      if !measuring then Probe.record deliver_l.seg (Probe.now () - starts.(k land ring));
      Mutex.lock lock;
      (match Hashtbl.find_opt outstanding k with
      | Some c when c > 1 -> Hashtbl.replace outstanding k (c - 1)
      | Some _ -> Hashtbl.remove outstanding k
      | None -> incr unexpected);
      Mutex.unlock lock;
      incr notified
    in
    let stop = ref false in
    let receiver =
      Thread.create
        (fun () ->
          while not !stop do
            ignore (Broker_client.await_deliveries ~timeout:0.05 sub max_int)
          done)
        ()
    in
    let close () =
      stop := true;
      Thread.join receiver;
      Node.close_wire w;
      Broker.close b;
      Node.rm_rf dir
    in
    (try
       Array.iteri
         (fun i p ->
           match
             Broker_client.subscribe sub ~subscriber:(Node.subscriber_name i)
               (Lang.body_to_string Gen.schema p) on_deliver
           with
           | Ok _ -> ()
           | Error e -> failwith ("subscribe: " ^ e))
         remote
     with e ->
       close ();
       raise e);
    let step k =
      let j = k land mask in
      let e = Event.of_values_exn ~seq:k Gen.schema events.(j).Event.values in
      if expected_remote.(j) > 0 then begin
        Mutex.lock lock;
        Hashtbl.replace outstanding k expected_remote.(j);
        Mutex.unlock lock
      end;
      server_expected := !server_expected + expected_local.(j);
      incr attempted;
      let t0 = Probe.now () in
      starts.(k land ring) <- t0;
      match Broker_client.publish pub e with
      | Ok _ ->
        if !measuring then Probe.record pub_l.seg (Probe.now () - t0);
        incr published
      | Error _ -> fail ()
    in
    let settle () =
      let deadline = Probe.now () + int_of_float (Node.deadline_s *. 1e9) in
      let owed () =
        Mutex.lock lock;
        let n = Hashtbl.length outstanding in
        Mutex.unlock lock;
        n
      in
      while owed () > 0 && Probe.now () < deadline do
        Thread.delay 0.001
      done;
      (* Missed deliveries, duplicates or strays, and server-side
         notifications that differ from the reference, are failed ops. *)
      Mutex.lock lock;
      failed := !failed + Hashtbl.length outstanding + !unexpected;
      Hashtbl.reset outstanding;
      unexpected := 0;
      Mutex.unlock lock;
      if !server_notified <> !server_expected then fail ();
      server_notified := 0;
      server_expected := 0
    in
    let _, probe =
      replacer ~window:0 churn
        ~subscribe:(fun p ->
          match Broker_client.subscribe sub ~subscriber:"churn" (Lang.body_to_string Gen.schema p) ignore with
          | Ok tok -> tok
          | Error e -> failwith e)
        ~unsubscribe:(fun tok ->
          match Broker_client.unsubscribe sub tok with Ok () -> () | Error e -> failwith e)
    in
    {
      step;
      probe = Some probe;
      comparisons = (fun () -> (Broker.ops b).Genas_filter.Ops.comparisons);
      deadletters = (fun () -> Deadletter.total (Broker.deadletter b));
      settle;
      close;
    }
  in
  { name = "wire"; tail = 95.0; summary = Median; warm = 1024; exact = 1024; ladder = { cfg; profiles; churn; events; covering }; setup }

let workloads = [ ("classic", classic); ("fanout-churn", fanout); ("wire", wire) ]

(* {1 Running a workload} *)

(* Set the node up; the node and the seconds it took. *)
let set_up w =
  Gc.full_major ();
  let t0 = Probe.now () in
  let n = w.setup () in
  (n, Probe.seconds_since t0)

(* Run [step] over consecutive indices until [seconds] pass; returns the
   next index and the elapsed seconds. *)
let run_for ~seconds ~from step =
  let t0 = Probe.now () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let i = ref from in
  while Probe.now () < deadline do
    for _ = 1 to 8 do
      step !i;
      incr i
    done
  done;
  (!i, Probe.seconds_since t0)

(* A burst of churn ops between segments, on a node whose loop does not
   churn, for [burst_s] seconds. A churn op puts back what it changed,
   so each burst finds the node in the same state however far the loop
   got. One untimed step after it, on pool
   index [next], absorbs the matcher rebuild it left due. *)
let churn_burst w node probe ~burst_s ~next =
  let deadline = Probe.now () + int_of_float (burst_s *. 1e9) in
  measuring := true;
  while Probe.now () < deadline do
    probe ()
  done;
  measuring := false;
  end_segment ~tail:w.tail churn_l;
  node.step next

(* The closed loop in [segments], within [seconds] in all. Set-ups timed
   between segments and closed again at once make setup_s a median over
   set-ups spread over the whole run, not over its start alone; churn
   bursts, a tenth of the run in all, sit beside them. Each segment gets
   an even share of the time left once the set-ups and bursts still due
   are set aside, so the run ends on time however long a set-up takes. *)
let end_to_end w node ~seconds ~from ~setup_s ~exact_words ~exact_cmp =
  let deadline = Probe.now () + int_of_float (seconds *. 1e9) in
  let breaks = segments / setup_every in
  let burst_s = if node.probe = None then 0.0 else seconds /. float_of_int (10 * breaks) in
  let from = ref from and setups = ref [ setup_s ] and breaks_due = ref breaks in
  let rates =
    Array.init segments (fun k ->
        let set_aside =
          float_of_int !breaks_due *. (Probe.median (Array.of_list !setups) +. burst_s)
        in
        let left = float_of_int (deadline - Probe.now ()) /. 1e9 -. set_aside in
        let seg_s = Float.max 0.01 (left /. float_of_int (segments - k)) in
        let p0 = !published and n0 = !notified and c0 = !check_ns in
        measuring := true;
        let next, wall = run_for ~seconds:seg_s ~from:!from node.step in
        node.settle ();
        measuring := false;
        from := next;
        List.iter (end_segment ~tail:w.tail) [ pub_l; deliver_l; churn_l ];
        let busy = wall -. (float_of_int (!check_ns - c0) /. 1e9) in
        let rate = (float_of_int (!published - p0) /. busy, float_of_int (!notified - n0) /. busy) in
        if k mod setup_every = setup_every - 1 then begin
          decr breaks_due;
          let n, dt = set_up w in
          n.close ();
          setups := dt :: !setups;
          Option.iter
            (fun probe ->
              churn_burst w node probe ~burst_s ~next:!from;
              incr from)
            node.probe
        end;
        rate)
  in
  Printf.printf "context: events/s by segment:%s\n"
    (String.concat "" (Array.to_list (Array.map (fun (e, _) -> Printf.sprintf " %.0f" e) rates)));
  Printf.printf "context: setup_s samples:%s\n"
    (String.concat "" (List.rev_map (Printf.sprintf " %.4f") !setups));
  List.iter
    (fun (n, l) ->
      let by f = String.concat "" (List.rev_map (fun x -> Printf.sprintf " %.2f" (f x)) l.figures) in
      Printf.printf "context: %s p50 us by segment:%s\ncontext: %s tail us by segment:%s\n" n
        (by fst) n (by snd))
    [ ("publish", pub_l); ("deliver", deliver_l) ];
  let rate f = sum_up w.summary ~higher:true (Array.map f rates) in
  let p50 = summed w.summary fst and tail = summed w.summary snd in
  (* The tails are printed, not reported as metrics: from run to run
     they spread by up to the largest bound a metric may have
     (README.md). *)
  Printf.printf "context: tail p%g (not a metric): publish %.4f us, deliver %.4f us, churn op %.4f us\n"
    w.tail (tail pub_l) (tail deliver_l) (tail churn_l);
  [
    ("events_per_s", rate fst, "1/s");
    ("notifications_per_s", rate snd, "1/s");
    ("publish_p50_us", p50 pub_l, "us");
    ("deliver_p50_us", p50 deliver_l, "us");
    ("churn_op_p50_us", p50 churn_l, "us");
    ("alloc_words_per_event", exact_words, "words");
    ("comparisons_per_event", exact_cmp, "count");
    ("setup_s", Probe.median (Array.of_list !setups), "s");
  ]

(* Traced mode, first part: the closed loop in alternating untraced and
   traced slices, for the GC figures and the benchmark's own overhead.
   The ladder runs after the node is closed, so no thread of the node
   allocates during its exact passes. *)
let traced_loop w node spans ~seconds ~from =
  let step_span = Spans.intern spans ("e2e." ^ w.name) in
  let i = ref from in
  let untraced_ns = ref 0 and untraced_steps = ref 0 in
  let traced_ns = ref 0 and traced_steps = ref 0 in
  let minor = ref 0 and major_words = ref 0.0 and events = ref 0 in
  let slice = seconds /. 20.0 in
  for _ = 1 to 10 do
    let g0 = Gc.quick_stat () and p0 = !published in
    let next, dt = run_for ~seconds:slice ~from:!i node.step in
    let g1 = Gc.quick_stat () in
    minor := !minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
    major_words := !major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
    events := !events + (!published - p0);
    untraced_ns := !untraced_ns + int_of_float (dt *. 1e9);
    untraced_steps := !untraced_steps + (next - !i);
    i := next;
    let traced k =
      let t0 = Probe.now () in
      node.step k;
      ignore (Spans.add spans ~name:step_span ~trace:k ~parent:(-1) t0 (Probe.now ()))
    in
    let next, dt = run_for ~seconds:slice ~from:!i traced in
    traced_ns := !traced_ns + int_of_float (dt *. 1e9);
    traced_steps := !traced_steps + (next - !i);
    i := next
  done;
  let per n d = float_of_int n /. float_of_int (max 1 d) in
  [
      ("broker.deadletters", float_of_int (node.deadletters ()), "count");
      ("gc.minor_collections_per_kevent", 1000.0 *. per !minor !events, "count");
      ("gc.major_words_per_event", !major_words /. float_of_int (max 1 !events), "words");
      ( "bench.trace_overhead_ratio",
        per !traced_ns !traced_steps /. per !untraced_ns !untraced_steps,
        "ratio" );
    ]

(* The process's thread count once it stops changing: a joined thread
   can still be leaving the kernel's list for a moment. *)
let rec settled_threads () =
  let n = Probe.threads () in
  Thread.delay 0.02;
  if Probe.threads () = n then n else settled_threads ()

(* One run: set up, warm up, exact pass, then the closed loop or the
   ladder. Prints the run context; returns the verdict. *)
let measure w ~seed ~seconds ~traced =
  if not (Sys.file_exists Node.out_dir) then Sys.mkdir Node.out_dir 0o755;
  (* The first thread creation starts the runtime's tick thread, which
     stays; start it before taking the leak baseline. *)
  Thread.join (Thread.create ignore ());
  let fds0 = Probe.open_fds () and threads0 = settled_threads () in
  let spans = Spans.create (1 lsl 16) in
  let node, setup_s = set_up w in
  let close =
    let closed = ref false in
    fun () ->
      if not !closed then begin
        closed := true;
        node.close ()
      end
  in
  let metrics =
    Fun.protect ~finally:close @@ fun () ->
    for i = 0 to w.warm - 1 do
      node.step i
    done;
    node.settle ();
    exact_pass := true;
    let w0 = Probe.words () and c0 = node.comparisons () and p0 = !published in
    for i = w.warm to w.warm + w.exact - 1 do
      node.step i
    done;
    node.settle ();
    let events = float_of_int (max 1 (!published - p0)) in
    let exact_words = (Probe.words () -. w0) /. events in
    let exact_cmp = float_of_int (node.comparisons () - c0) /. events in
    exact_pass := false;
    let from = w.warm + w.exact in
    let m =
      if traced then traced_loop w node spans ~seconds:(0.2 *. seconds) ~from
      else end_to_end w node ~seconds ~from ~setup_s ~exact_words ~exact_cmp
    in
    node.settle ();
    failed := !failed + node.deadletters ();
    close ();
    if traced then begin
      let m = Ladder.run spans ~seconds:(0.8 *. seconds) w.ladder @ m in
      let path = Filename.concat Node.out_dir (Printf.sprintf "spans-%s-%d.json" w.name seed) in
      Spans.write spans path;
      Printf.printf "spans: %d recorded, %d dropped, written to %s\n" (Spans.recorded spans)
        (Spans.dropped spans) path;
      m
    end
    else m
  in
  Gc.full_major ();
  let fds1 = Probe.open_fds () and threads1 = settled_threads () in
  let leak_free = fds0 = fds1 && threads0 = threads1 in
  Printf.printf "context: nproc %d, ocaml %s, clock read %.1f ns (Genas_obs.Clock.now_ns %.1f ns)\n"
    (Probe.nproc ()) Sys.ocaml_version (Probe.call_cost_ns Probe.now)
    (Probe.call_cost_ns Genas_obs.Clock.now_ns);
  Printf.printf "context: warm-up %d ops, exact pass %d ops, %s\n" w.warm w.exact
    (if traced then Printf.sprintf "ladder over %g s" seconds
     else
       Printf.sprintf "closed loop for %g s in %d segments, %s segment reported, setup median of %d, tail p%g"
         seconds segments
         (match w.summary with Best -> "best" | Median -> "median")
         (1 + (segments / setup_every)) w.tail);
  if not traced then
    List.iter
      (fun (n, h) ->
        Printf.printf "context: %s latency over %d samples:" n h.Probe.total;
        List.iter
          (fun p ->
            let v, beyond = Probe.percentile h p in
            Printf.printf " p%g %.2f us (%d beyond)" p v beyond)
          [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ];
        print_newline ())
      [ ("publish", pub_l.all); ("deliver", deliver_l.all); ("churn", churn_l.all) ];
  Printf.printf "check: fds %d -> %d, threads %d -> %d, failed %d of %d\n" fds0 fds1 threads0
    threads1 !failed !attempted;
  (!failed = 0 && leak_free, !attempted, !failed, metrics)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME classic | fanout-churn | wire");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds !trace;
  let correct, attempted, failed, metrics =
    measure (make !seed) ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %16.4f %s\n" n v u) metrics;
  Printf.printf "  %-40s %16.6f ratio\n" "failed_ops_ratio"
    (float_of_int failed /. float_of_int (max 1 attempted));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && finite) (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (if Float.is_finite v then json_number v else "-1")
              u)
          metrics))
