(* Statistics objects: observation, assumed distributions, profile
   weights, and the zero-subdomain probability. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval
module Dist = Genas_dist.Dist
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile
module Profile_set = Genas_profile.Profile_set
module Decomp = Genas_filter.Decomp
module Stats = Genas_core.Stats

let close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let setup ?(with_dontcare = false) () =
  let schema =
    Schema.create_exn
      [ ("x", Domain.int_range ~lo:0 ~hi:9); ("y", Domain.int_range ~lo:0 ~hi:9) ]
  in
  let pset = Profile_set.create schema in
  ignore
    (Profile_set.add pset
       (Profile.create_exn schema
          ([ ("x", Predicate.Le (Value.Int 4)) ]
          @ if with_dontcare then [] else [ ("y", Predicate.Eq (Value.Int 7)) ])));
  ignore
    (Profile_set.add pset
       (Profile.create_exn schema
          [ ("x", Predicate.Eq (Value.Int 2)); ("y", Predicate.Ge (Value.Int 5)) ]));
  (schema, Stats.create (Decomp.build pset))

let test_default_uniform () =
  let _, stats = setup () in
  let d = Stats.event_dist stats ~attr:0 in
  close "uniform point" 0.1 (Dist.prob_interval d (Interval.point 3.0))

let test_observation_estimates () =
  let schema, stats = setup () in
  for _ = 1 to 100 do
    Stats.observe_event stats
      (Event.create_exn schema [ ("x", Value.Int 2); ("y", Value.Int 7) ])
  done;
  Alcotest.(check int) "seen" 100 (Stats.events_seen stats);
  let d = Stats.event_dist stats ~attr:0 in
  Alcotest.(check bool) "mass near 2" true
    (Dist.prob_interval d (Interval.point 2.0) > 0.9)

let test_assumed_takes_precedence () =
  let schema, stats = setup () in
  let axis = (Stats.decomp stats).Decomp.axes.(0) in
  for _ = 1 to 50 do
    Stats.observe_event stats
      (Event.create_exn schema [ ("x", Value.Int 9); ("y", Value.Int 0) ])
  done;
  Stats.assume_event_dist stats ~attr:0 (Dist.of_atoms axis [ (1.0, 1.0) ]);
  let d = Stats.event_dist stats ~attr:0 in
  close "assumed atom" 1.0 (Dist.prob_interval d (Interval.point 1.0));
  Stats.clear_assumed stats ~attr:0;
  let d' = Stats.event_dist stats ~attr:0 in
  Alcotest.(check bool) "observed back in force" true
    (Dist.prob_interval d' (Interval.point 9.0) > 0.5)

let test_assume_axis_guard () =
  let _, stats = setup () in
  let wrong = Axis.make ~discrete:false ~lo:0.0 ~hi:1.0 in
  Alcotest.check_raises "axis mismatch"
    (Invalid_argument "Stats.assume_event_dist: axis mismatch") (fun () ->
      Stats.assume_event_dist stats ~attr:0 (Dist.uniform wrong))

let test_profile_weights () =
  let _, stats = setup () in
  (* x cells: {2} referenced by both (P0 via <=4, P1 via =2), [0,1] and
     [3,4] by P0 only, [5,9] D0. *)
  let w = Stats.profile_cell_weights stats ~attr:0 in
  let decomp = Stats.decomp stats in
  let cells = decomp.Decomp.overlays.(0).Genas_interval.Overlay.cells in
  Array.iteri
    (fun i (c : Genas_interval.Overlay.cell) ->
      let expected = float_of_int (List.length c.Genas_interval.Overlay.ids) /. 2.0 in
      close (Printf.sprintf "cell %d" i) expected w.(i))
    cells

let test_profile_weight_override () =
  let _, stats = setup () in
  let ncells =
    Array.length (Stats.decomp stats).Decomp.overlays.(0).Genas_interval.Overlay.cells
  in
  let forced = Array.make ncells 0.25 in
  Stats.assume_profile_weights stats ~attr:0 forced;
  Alcotest.(check (array (float 1e-9))) "override" forced
    (Stats.profile_cell_weights stats ~attr:0);
  Alcotest.check_raises "length guard"
    (Invalid_argument "Stats.assume_profile_weights: length mismatch") (fun () ->
      Stats.assume_profile_weights stats ~attr:0 [| 1.0 |])

let test_d0_event_prob () =
  let _, stats = setup () in
  (* x: referenced [0,4]; D0 [5,9] => uniform mass 0.5. *)
  close "x D0" 0.5 (Stats.d0_event_prob stats ~attr:0);
  (* With a don't-care profile on y the semantic D0 is empty. *)
  let _, stats_dc = setup ~with_dontcare:true () in
  close "y D0 zero with don't-care" 0.0 (Stats.d0_event_prob stats_dc ~attr:1)

let test_priorities_weight_pp () =
  let _, stats = setup () in
  (* Profiles 0 and 1; give profile 1 weight 3. The cell {2} (referenced
     by both) gets (1+3)/4; cells referenced by 0 only get 1/4. *)
  Stats.set_priority stats ~id:1 3.0;
  Alcotest.(check (float 1e-9)) "priority read back" 3.0 (Stats.priority stats ~id:1);
  let w = Stats.profile_cell_weights stats ~attr:0 in
  let decomp = Stats.decomp stats in
  let cells = decomp.Decomp.overlays.(0).Genas_interval.Overlay.cells in
  Array.iteri
    (fun i (c : Genas_interval.Overlay.cell) ->
      let expected =
        List.fold_left
          (fun acc id -> acc +. (if id = 1 then 3.0 else 1.0))
          0.0 c.Genas_interval.Overlay.ids
        /. 4.0
      in
      close (Printf.sprintf "cell %d" i) expected w.(i))
    cells;
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Stats.set_priority: negative priority") (fun () ->
      Stats.set_priority stats ~id:0 (-1.0))

let test_reset () =
  let schema, stats = setup () in
  Stats.observe_event stats
    (Event.create_exn schema [ ("x", Value.Int 1); ("y", Value.Int 1) ]);
  Stats.reset_observations stats;
  Alcotest.(check int) "zeroed" 0 (Stats.events_seen stats)

(* Allocation contract: recording an event on int attributes bins each
   value in place and allocates nothing (the paper's table workload,
   three int attributes). *)
let test_observe_event_allocates_nothing () =
  let w = Genas_testlib.Table.create () in
  let stats = Stats.create (Decomp.build w.Genas_testlib.Table.pset) in
  let events = w.Genas_testlib.Table.events in
  let run () =
    for i = 0 to Array.length events - 1 do
      Stats.observe_event stats (Array.unsafe_get events i)
    done
  in
  run ();
  Alcotest.(check (float 0.0)) "minor words over 1024 events" 0.0
    (Genas_testlib.Alloc.minor_words run);
  Alcotest.(check int) "every event recorded" (2 * Array.length events)
    (Stats.events_seen stats)

(* [observe_event] bins in-domain ints and floats without going through
   [Axis.coord]; it must still bin exactly as [observe_coords] does on
   [Axis.coord]'s coordinates (off-domain as nan). Events of a wider
   schema with the same kinds supply the off-domain values. *)
let test_observe_event_agrees_with_axis_coord () =
  let schema_of ~ilo ~ihi ~flo ~fhi =
    Schema.create_exn
      [
        ("i", Domain.int_range ~lo:ilo ~hi:ihi);
        ("f", Domain.float_range ~lo:flo ~hi:fhi);
        ("g", Domain.float_range ~lo:flo ~hi:fhi);
        ("e", Domain.enum [ "a"; "b"; "c" ]);
        ("b", Domain.bool_dom);
      ]
  in
  let schema = schema_of ~ilo:0 ~ihi:9 ~flo:(-1.5) ~fhi:2.5 in
  let wide = schema_of ~ilo:(-5) ~ihi:20 ~flo:(-10.0) ~fhi:10.0 in
  let decomp = Decomp.build (Profile_set.create schema) in
  let fast = Stats.create decomp and reference = Stats.create decomp in
  let ints = [ -5; -1; 0; 1; 4; 9; 10; 20 ] in
  let floats = [ -10.0; -1.5000001; -1.5; 0.0; 0.25; 2.5; 2.5000001; 10.0 ] in
  let int_floats = [ -10; -2; -1; 0; 2; 3; 10 ] in
  let strs = [ "a"; "b"; "c" ] in
  List.iteri
    (fun k i ->
      let vs =
        [|
          Value.Int i;
          Value.Float (List.nth floats (k mod List.length floats));
          Value.Int (List.nth int_floats (k mod List.length int_floats));
          Value.Str (List.nth strs (k mod List.length strs));
          Value.Bool (k mod 2 = 0);
        |]
      in
      let e = Event.of_values_exn wide vs in
      Stats.observe_event fast e;
      Stats.observe_coords reference
        (Array.mapi
           (fun attr v ->
             match Axis.coord (Schema.attribute schema attr).Schema.domain v with
             | Some c -> c
             | None -> Float.nan)
           vs))
    (ints @ List.rev ints);
  Alcotest.(check bool) "off-domain values were dropped" true
    ((Stats.export fast).Stats.Export.hists.(0).Genas_dist.Estimator.Export.dropped
    > 0);
  Alcotest.(check bool) "exports identical" true
    (Stats.export fast = Stats.export reference)

(* An out-of-axis coordinate is dropped, not binned. [nan] fails every
   comparison, so on a continuous axis no range test rejects it unless
   it is written to. *)
let test_nan_dropped () =
  let schema = Schema.create_exn [ ("f", Domain.float_range ~lo:0.0 ~hi:10.0) ] in
  let stats = Stats.create (Decomp.build (Profile_set.create schema)) in
  Stats.observe_coords stats [| Float.nan |];
  let h = (Stats.export stats).Stats.Export.hists.(0) in
  Alcotest.(check (pair int int)) "count, dropped" (0, 1)
    Genas_dist.Estimator.Export.(h.total, h.dropped)

let () =
  Alcotest.run "stats"
    [
      ( "event distributions",
        [
          Alcotest.test_case "defaults to uniform" `Quick test_default_uniform;
          Alcotest.test_case "observation" `Quick test_observation_estimates;
          Alcotest.test_case "assumed precedence" `Quick test_assumed_takes_precedence;
          Alcotest.test_case "axis guard" `Quick test_assume_axis_guard;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "nan coordinate dropped" `Quick test_nan_dropped;
        ] );
      ( "profile distributions",
        [
          Alcotest.test_case "reference weights" `Quick test_profile_weights;
          Alcotest.test_case "override" `Quick test_profile_weight_override;
          Alcotest.test_case "priorities" `Quick test_priorities_weight_pp;
          Alcotest.test_case "D0 probability" `Quick test_d0_event_prob;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "observe_event allocates 0 words (int attributes)"
            `Quick test_observe_event_allocates_nothing;
          Alcotest.test_case "observe_event bins as Axis.coord" `Quick
            test_observe_event_agrees_with_axis_coord;
        ] );
    ]
