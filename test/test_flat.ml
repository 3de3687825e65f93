(* Differential fuzz suite for the compiled flat-array matcher: the
   flat form must return the exact match sets of the pointer tree, the
   naive oracle, and the counting matcher, with comparison/node-visit
   counters bit-identical to the tree — the paper's figures must not
   move when the engine executes the compiled form. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Tree = Genas_filter.Tree
module Flat = Genas_filter.Flat
module Naive = Genas_filter.Naive
module Counting = Genas_filter.Counting
module Ops = Genas_filter.Ops
module Stats = Genas_core.Stats
module Selectivity = Genas_core.Selectivity
module Reorder = Genas_core.Reorder
module Engine = Genas_core.Engine
module Gen = Genas_testlib.Gen
module Table = Genas_testlib.Table

(* Every value-strategy family the reorderer can emit, so the flat
   scan's linear, binary, and hashed branches are all exercised. *)
let specs =
  [
    ("natural", { Reorder.attr_choice = Reorder.Attr_natural;
                  value_choice = `Measure Selectivity.V_natural_asc });
    ("v1+a2", { Reorder.attr_choice =
                  Reorder.Attr_measured (Selectivity.A2, `Descending);
                value_choice = `Measure Selectivity.V1 });
    ("binary", { Reorder.attr_choice = Reorder.Attr_natural;
                 value_choice = `Binary });
    ("hashed", { Reorder.attr_choice = Reorder.Attr_natural;
                 value_choice = `Hashed });
  ]

let trees_of pset =
  let stats = Stats.create (Decomp.build pset) in
  List.map (fun (name, spec) -> (name, Reorder.build stats spec)) specs

let ops_eq a b =
  a.Ops.comparisons = b.Ops.comparisons
  && a.Ops.node_visits = b.Ops.node_visits
  && a.Ops.events = b.Ops.events
  && a.Ops.matches = b.Ops.matches

let check_tree_vs_flat ~name tree events =
  let flat = Flat.compile tree in
  let cur = Flat.cursor flat in
  let tree_ops = Ops.create () and flat_ops = Ops.create () in
  List.for_all
    (fun e ->
      let expect = Tree.match_event ~ops:tree_ops tree e in
      let got = Flat.match_list ~ops:flat_ops flat cur e in
      if got <> expect then
        QCheck.Test.fail_reportf "%s: flat %s <> tree %s" name
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int expect))
      else if not (ops_eq tree_ops flat_ops) then
        QCheck.Test.fail_reportf "%s: ops drift: tree %a, flat %a" name Ops.pp
          tree_ops Ops.pp flat_ops
      else true)
    events

let prop_flat_equals_tree =
  QCheck.Test.make ~name:"flat = tree (matches and ops), all strategies"
    ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun (_, pset, events) ->
      List.for_all
        (fun (name, tree) -> check_tree_vs_flat ~name tree events)
        (trees_of pset))

let prop_flat_equals_baselines =
  QCheck.Test.make ~name:"flat = naive = counting match sets" ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun (_, pset, events) ->
      let naive = Naive.build pset in
      let counting = Counting.build pset in
      let stats = Stats.create (Decomp.build pset) in
      let flat = Flat.compile (Reorder.build stats Reorder.default_spec) in
      let cur = Flat.cursor flat in
      List.for_all
        (fun e ->
          let oracle = Naive.match_event naive e in
          Flat.match_list flat cur e = oracle
          && Counting.match_event counting e = oracle)
        events)

(* The recording loop is a duplicate of the plain one; this pins the
   two in lockstep — same match sets, bit-identical [Ops] accounting —
   and checks the counters it adds: per-event the path's node visits
   sum to the recorder's deltas, level 0 sees every event, and the
   path's comparison total equals the per-event ops count. *)
let prop_recorded_equals_plain =
  QCheck.Test.make ~name:"recorded loop = plain loop (matches, ops, visits)"
    ~count:60
    (QCheck.make (Gen.scenario ~max_attrs:4 ~max_p:15 ~n_events:30 ()))
    (fun (_, pset, events) ->
      List.for_all
        (fun (_, tree) ->
          let flat = Flat.compile tree in
          let cur_a = Flat.cursor flat in
          let cur_b = Flat.cursor flat in
          let r = Flat.recorder flat in
          let ops_a = Ops.create () in
          let ops_b = Ops.create () in
          List.for_all
            (fun e ->
              let cmp_before = ops_b.Ops.comparisons in
              let na = Flat.match_into ~ops:ops_a flat cur_a e in
              let nb = Flat.match_into_recorded ~ops:ops_b flat cur_b r e in
              let path = Flat.last_path r in
              na = nb
              && Array.to_list (Flat.matches cur_a)
                 = Array.to_list (Flat.matches cur_b)
              && ops_eq ops_a ops_b
              && List.fold_left
                   (fun acc (s : Flat.path_step) ->
                     acc + s.Flat.step_comparisons)
                   0 path
                 = ops_b.Ops.comparisons - cmp_before)
            events
          &&
          let visits = Flat.node_visits r in
          let levels = Flat.level_visits r in
          Flat.recorded_events r = List.length events
          && levels.(0) = List.length events
          && Array.fold_left ( + ) 0 visits
             = Array.fold_left ( + ) 0 levels)
        (trees_of pset))

let test_recorder_reset_and_guards () =
  let s =
    Schema.create_exn
      [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]
  in
  let pset = Profile_set.create s in
  ignore
    (Profile_set.add pset
       (Profile.create_exn s [ ("x", Predicate.Ge (Value.Int 5)) ]));
  let stats = Stats.create (Decomp.build pset) in
  let flat = Flat.compile (Reorder.build stats Reorder.default_spec) in
  let cur = Flat.cursor flat in
  let r = Flat.recorder flat in
  let e = Event.create_exn s [ ("x", Value.Int 7); ("y", Value.Int 1) ] in
  ignore (Flat.match_into_recorded flat cur r e);
  Alcotest.(check int) "one event recorded" 1 (Flat.recorded_events r);
  Alcotest.(check bool) "path non-empty" true (Flat.last_path r <> []);
  Flat.reset_recorder r;
  Alcotest.(check int) "reset clears events" 0 (Flat.recorded_events r);
  Alcotest.(check (list int)) "reset clears path" []
    (List.map (fun (st : Flat.path_step) -> st.Flat.step_node)
       (Flat.last_path r));
  Alcotest.(check int) "reset clears visits" 0
    (Array.fold_left ( + ) 0 (Flat.node_visits r));
  (* A recorder built for another matcher is rejected. The foreign
     matcher uses a wider schema so its arity — and thus the recorder
     geometry — cannot coincide with [flat]'s. *)
  let s2 =
    Schema.create_exn
      [
        ("x", Domain.int_range ~lo:0 ~hi:9);
        ("y", Domain.int_range ~lo:0 ~hi:9);
        ("z", Domain.int_range ~lo:0 ~hi:9);
      ]
  in
  let pset2 = Profile_set.create s2 in
  ignore
    (Profile_set.add pset2
       (Profile.create_exn s2
          [ ("y", Predicate.Le (Value.Int 3)); ("z", Predicate.Ge (Value.Int 2)) ]));
  let stats2 = Stats.create (Decomp.build pset2) in
  let flat2 = Flat.compile (Reorder.build stats2 Reorder.default_spec) in
  let foreign = Flat.recorder flat2 in
  (try
     ignore (Flat.match_into_recorded flat cur foreign e);
     Alcotest.fail "foreign recorder accepted"
   with Invalid_argument _ -> ())

let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"match_batch = per-event match_into" ~count:40
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:10 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let stats = Stats.create (Decomp.build pset) in
      let flat = Flat.compile (Reorder.build stats Reorder.default_spec) in
      let events = Array.of_list events in
      let seq_cur = Flat.cursor flat in
      let seq =
        Array.map (fun e -> Array.of_list (Flat.match_list flat seq_cur e)) events
      in
      let got = Array.make (Array.length events) [||] in
      let batch_cur = Flat.cursor flat in
      Flat.match_batch flat batch_cur events ~f:(fun i ~ids ~len ->
          got.(i) <- Array.sub ids 0 len);
      got = seq)

let prop_engine_batch_equals_match_event =
  QCheck.Test.make ~name:"Engine.match_batch = Engine.match_event loop"
    ~count:25
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:10 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let events = Array.of_list events in
      let seq =
        let engine = Engine.create pset in
        Array.map
          (fun e -> Array.of_list (Engine.match_event engine e))
          events
      in
      let batched =
        let engine = Engine.create pset in
        Engine.match_batch engine events
      in
      let profiled =
        let engine = Engine.create pset in
        Engine.set_profiling engine true;
        Engine.match_batch engine events
      in
      seq = batched && seq = profiled)

(* An aggregated engine compiles only the covering-minimal roots and
   expands absorbed profiles at match time; its decisions must be
   bit-identical to a plain engine over the same registry, on both the
   single-event and batch paths, before and after an epoch swap. *)
let prop_engine_aggregated_equals_plain =
  QCheck.Test.make ~name:"aggregated Engine = plain Engine"
    ~count:25
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let events = Array.of_list events in
      let plain =
        let engine = Engine.create pset in
        Array.map
          (fun e -> Array.of_list (Engine.match_event engine e))
          events
      in
      let agg = Engine.create ~aggregate:true pset in
      let before_swap =
        Array.map (fun e -> Array.of_list (Engine.match_event agg e)) events
      in
      Engine.swap_now agg;
      let after_swap = Engine.match_batch agg events in
      plain = before_swap && plain = after_swap)

(* The hotness-guided relayout is a pure permutation of memory order:
   match sets, comparison counts, and node-visit counts must be
   bit-identical to the default layout, whatever visit counts drive
   it. Both the [relayout] entry point (visits keyed to the given
   form) and [compile ?layout] (visits keyed to the default compile)
   are pinned. *)
let prop_relayout_equals_default =
  QCheck.Test.make ~name:"relayout / compile ?layout = default layout"
    ~count:40
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:25 ()))
    (fun (_, pset, events) ->
      let stats = Stats.create (Decomp.build pset) in
      let tree = Reorder.build stats Reorder.default_spec in
      let flat = Flat.compile tree in
      (* Record real visits over half the events, so the permutation is
         a plausible hot order rather than noise. *)
      let r = Flat.recorder flat in
      let rc = Flat.cursor flat in
      List.iteri
        (fun i e ->
          if i mod 2 = 0 then ignore (Flat.match_into_recorded flat rc r e))
        events;
      let visits = Flat.node_visits r in
      let variants =
        [
          Flat.relayout flat visits;
          Flat.compile ~layout:visits tree;
          (* Degenerate drivers: all-zero and all-equal visit counts
             must still be behaviour-preserving permutations. *)
          Flat.relayout flat (Array.make (Flat.node_count flat) 0);
          Flat.relayout flat (Array.make (Flat.node_count flat) 7);
        ]
      in
      List.for_all
        (fun hot ->
          let base_ops = Ops.create () and hot_ops = Ops.create () in
          let base_cur = Flat.cursor flat and hot_cur = Flat.cursor hot in
          Flat.node_count hot = Flat.node_count flat
          && Flat.edge_count hot = Flat.edge_count flat
          && Flat.posting_count hot = Flat.posting_count flat
          && List.for_all
               (fun e ->
                 Flat.match_list ~ops:base_ops flat base_cur e
                 = Flat.match_list ~ops:hot_ops hot hot_cur e)
               events
          && ops_eq base_ops hot_ops)
        variants)

(* Engine.relayout_now: profiling-gated, behaviour-preserving, and the
   recorder restarts against the new layout. *)
let prop_engine_relayout_now =
  QCheck.Test.make ~name:"Engine.relayout_now preserves matching" ~count:25
    (QCheck.make (Gen.scenario ~max_attrs:3 ~max_p:12 ~n_events:20 ()))
    (fun (_, pset, events) ->
      let engine = Engine.create pset in
      let baseline =
        List.map (fun e -> Engine.match_event engine e) events
      in
      (* Without profiling there is nothing to relayout. *)
      let off = Engine.relayout_now engine = false in
      Engine.set_profiling engine true;
      (* Profiling on but nothing recorded yet: still a no-op. *)
      let unrecorded = Engine.relayout_now engine = false in
      List.iter (fun e -> ignore (Engine.match_event engine e)) events;
      let swapped =
        match events with [] -> true | _ -> Engine.relayout_now engine
      in
      let after = List.map (fun e -> Engine.match_event engine e) events in
      off && unrecorded && swapped && after = baseline)

(* ------------------------------------------------------------------ *)
(* Edge cases. *)

let schema () =
  Schema.create_exn
    [
      ("x", Domain.int_range ~lo:0 ~hi:9);
      ("s", Domain.enum [ "a"; "b"; "c" ]);
    ]

let pset_of schema specs =
  let pset = Profile_set.create schema in
  List.iter
    (fun tests ->
      ignore (Profile_set.add pset (Profile.create_exn schema tests)))
    specs;
  pset

let event s x sv =
  Event.create_exn s [ ("x", Value.Int x); ("s", Value.Str sv) ]

let flat_of pset =
  let stats = Stats.create (Decomp.build pset) in
  Flat.compile (Reorder.build stats Reorder.default_spec)

let test_empty_tree () =
  let s = schema () in
  let pset = Profile_set.create s in
  let flat = flat_of pset in
  let cur = Flat.cursor flat in
  Alcotest.(check (list int)) "no profiles, no matches" []
    (Flat.match_list flat cur (event s 3 "a"));
  Alcotest.(check int) "no flat nodes" 0 (Flat.node_count flat)

let test_all_dont_care () =
  let s = schema () in
  (* One unconstrained profile, one constrained, one unconstrained:
     don't-care ids must survive dedup and stay ascending. *)
  let pset =
    pset_of s [ []; [ ("x", Predicate.Eq (Value.Int 1)) ]; [] ]
  in
  let flat = flat_of pset in
  let cur = Flat.cursor flat in
  Alcotest.(check (list int)) "don't-cares always match" [ 0; 2 ]
    (Flat.match_list flat cur (event s 5 "a"));
  Alcotest.(check (list int)) "plus the constrained one" [ 0; 1; 2 ]
    (Flat.match_list flat cur (event s 1 "c"))

let test_out_of_domain_coords () =
  let s = schema () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Ge (Value.Int 5)) ];
        [ ("s", Predicate.Eq (Value.Str "b")) ];
      ]
  in
  let stats = Stats.create (Decomp.build pset) in
  let tree = Reorder.build stats Reorder.default_spec in
  let flat = Flat.compile tree in
  let cur = Flat.cursor flat in
  List.iter
    (fun coords ->
      let tree_ops = Ops.create () and flat_ops = Ops.create () in
      let expect = Tree.match_coords ~ops:tree_ops tree coords in
      let n = Flat.match_coords_into ~ops:flat_ops flat cur coords in
      let got = Array.to_list (Array.sub (Flat.matches cur) 0 n) in
      Alcotest.(check (list int)) "coords agree" expect got;
      Alcotest.(check bool) "ops agree" true (ops_eq tree_ops flat_ops))
    [
      [| -1e9; 0.0 |];  (* far below the x axis *)
      [| 1e9; 1.0 |];  (* far above *)
      [| 0.5; 0.0 |];  (* fractional on a discrete axis *)
      [| 7.0; 99.0 |];  (* enum rank out of range *)
      [| 7.0; 1.0 |];  (* in domain, for contrast *)
    ]

let test_foreign_cursor_rejected () =
  let s = schema () in
  let flat_a = flat_of (pset_of s [ [ ("x", Predicate.Eq (Value.Int 1)) ] ]) in
  let flat_b =
    flat_of
      (pset_of s
         [
           [ ("x", Predicate.Eq (Value.Int 1)) ];
           [ ("x", Predicate.Eq (Value.Int 2)) ];
           [ ("s", Predicate.Eq (Value.Str "a")) ];
         ])
  in
  let cur_a = Flat.cursor flat_a in
  Alcotest.check_raises "foreign cursor"
    (Invalid_argument "Flat.match_into: cursor built for a different matcher")
    (fun () -> ignore (Flat.match_into flat_b cur_a (event s 1 "a")))

let test_sharing_preserved () =
  let s = schema () in
  let pset =
    pset_of s
      [
        [ ("x", Predicate.Le (Value.Int 4)) ];
        [ ("x", Predicate.Ge (Value.Int 5)) ];
        [ ("s", Predicate.Eq (Value.Str "b")) ];
      ]
  in
  let stats = Stats.create (Decomp.build pset) in
  let tree = Reorder.build stats Reorder.default_spec in
  let st = tree.Tree.stats in
  let flat = Flat.compile tree in
  Alcotest.(check int) "flat nodes = tree nodes + leaves"
    (st.Tree.nodes + st.Tree.leaves)
    (Flat.node_count flat)

let test_relayout_guards () =
  let s = schema () in
  let flat = flat_of (pset_of s [ [ ("x", Predicate.Eq (Value.Int 1)) ] ]) in
  try
    ignore (Flat.relayout flat [| 1 |]);
    (* length must be node_count *)
    if Flat.node_count flat <> 1 then
      Alcotest.fail "wrong-length layout accepted"
  with Invalid_argument _ -> ()

(* Allocation contracts, measured with [Gc.minor_words] on the paper's
   table workload (500 profiles over 3 int attributes, V1+A2 order):
   the steady-state flat kernel allocates nothing per event, on the
   single-event and the batch path alike. *)
let alloc_workload () =
  let w = Table.create () in
  let stats = Stats.create (Decomp.build w.Table.pset) in
  (Flat.compile (Reorder.build stats Table.v1a2), w.Table.events)

let minor_words_of = Genas_testlib.Alloc.minor_words

let test_match_into_allocates_nothing () =
  let flat, events = alloc_workload () in
  let cur = Flat.cursor flat in
  let matched = ref 0 in
  let run () =
    for i = 0 to Array.length events - 1 do
      matched := !matched + Flat.match_into flat cur (Array.unsafe_get events i)
    done
  in
  run () (* warm the cursor *);
  Alcotest.(check (float 0.0)) "minor words over 1024 events" 0.0
    (minor_words_of run);
  Alcotest.(check bool) "events matched something" true (!matched > 0)

let test_match_batch_allocates_nothing () =
  let flat, events = alloc_workload () in
  let cur = Flat.cursor flat in
  let matched = ref 0 in
  let f _ ~ids:_ ~len = matched := !matched + len in
  let run () = Flat.match_batch flat cur events ~f in
  run ();
  Alcotest.(check (float 0.0)) "minor words over a 1024-event batch" 0.0
    (minor_words_of run);
  Alcotest.(check bool) "events matched something" true (!matched > 0)

(* The engine around the kernel: with no metrics registry, statistics
   recording included, a match through [match_with] allocates nothing
   on int attributes. *)
let test_engine_match_with_allocates_nothing () =
  let w = Table.create () in
  let engine = Engine.create ~spec:Table.v1a2 w.Table.pset in
  let events = w.Table.events in
  let matched = ref 0 in
  let f ~ids:_ ~len = matched := !matched + len in
  let run () =
    for i = 0 to Array.length events - 1 do
      Engine.match_with engine (Array.unsafe_get events i) ~f
    done
  in
  run ();
  Alcotest.(check (float 0.0)) "minor words over 1024 events" 0.0
    (minor_words_of run);
  Alcotest.(check bool) "events matched something" true (!matched > 0)

let () =
  Alcotest.run "flat"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_flat_equals_tree;
          QCheck_alcotest.to_alcotest prop_flat_equals_baselines;
          QCheck_alcotest.to_alcotest prop_recorded_equals_plain;
          QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
          QCheck_alcotest.to_alcotest prop_engine_batch_equals_match_event;
          QCheck_alcotest.to_alcotest prop_engine_aggregated_equals_plain;
          QCheck_alcotest.to_alcotest prop_relayout_equals_default;
          QCheck_alcotest.to_alcotest prop_engine_relayout_now;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "all don't-care" `Quick test_all_dont_care;
          Alcotest.test_case "out-of-domain coords" `Quick
            test_out_of_domain_coords;
          Alcotest.test_case "foreign cursor" `Quick
            test_foreign_cursor_rejected;
          Alcotest.test_case "recorder reset and guards" `Quick
            test_recorder_reset_and_guards;
          Alcotest.test_case "sharing preserved" `Quick test_sharing_preserved;
          Alcotest.test_case "relayout guards" `Quick test_relayout_guards;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "match_into allocates 0 words/event" `Quick
            test_match_into_allocates_nothing;
          Alcotest.test_case "match_batch allocates 0 words/event" `Quick
            test_match_batch_allocates_nothing;
          Alcotest.test_case "Engine.match_with allocates 0 words/event"
            `Quick test_engine_match_with_allocates_nothing;
        ] );
    ]
