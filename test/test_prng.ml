(* Deterministic PRNG substrate: reproducibility, bounds, and rough
   distributional sanity. *)

module Prng = Genas_prng.Prng

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref 0 in
  for _ = 1 to 100 do
    if Prng.bits64 a <> Prng.bits64 b then incr distinct
  done;
  if !distinct < 95 then Alcotest.failf "streams too similar: %d" !distinct

let test_copy_independent () =
  let a = Prng.create ~seed:5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  let xa = Prng.bits64 a and xb = Prng.bits64 b in
  Alcotest.(check int64) "copy continues identically" xa xb

let test_split_decorrelated () =
  let a = Prng.create ~seed:5 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Prng.bits64 a = Prng.bits64 child then incr same
  done;
  Alcotest.(check int) "no collisions" 0 !same

let test_int_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_int_uniform () =
  let rng = Prng.create ~seed:11 in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Prng.int rng ~bound:8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d far from %d" i c expected)
    counts

let test_int_in () =
  let rng = Prng.create ~seed:13 in
  for _ = 1 to 10_000 do
    let v = Prng.int_in rng ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.(check int) "degenerate range" 3 (Prng.int_in rng ~lo:3 ~hi:3)

let test_invalid_args () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "int bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng ~bound:0));
  Alcotest.check_raises "int_in hi<lo" (Invalid_argument "Prng.int_in: hi < lo")
    (fun () -> ignore (Prng.int_in rng ~lo:2 ~hi:1));
  Alcotest.check_raises "exponential rate"
    (Invalid_argument "Prng.exponential: rate must be positive") (fun () ->
      ignore (Prng.exponential rng ~rate:0.0));
  Alcotest.check_raises "choice empty"
    (Invalid_argument "Prng.choice: empty array") (fun () ->
      ignore (Prng.choice rng [||]))

let test_gaussian_moments () =
  let rng = Prng.create ~seed:17 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian rng ~mu:3.0 ~sigma:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 3.0) > 0.05 then Alcotest.failf "mean %.3f" mean;
  if Float.abs (var -. 4.0) > 0.2 then Alcotest.failf "variance %.3f" var

let test_exponential_mean () =
  let rng = Prng.create ~seed:19 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential rng ~rate:2.0 in
    if x < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.02 then Alcotest.failf "mean %.4f" mean

let test_weighted_index () =
  let rng = Prng.create ~seed:23 in
  let w = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Prng.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(1);
  let share = float_of_int counts.(2) /. float_of_int n in
  if Float.abs (share -. 0.75) > 0.02 then Alcotest.failf "share %.3f" share

let test_shuffle_is_permutation () =
  let rng = Prng.create ~seed:29 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create ~seed:31 in
  for _ = 1 to 100 do
    let s = Prng.sample_without_replacement rng ~k:10 ~n:30 in
    Alcotest.(check int) "k elements" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort Int.compare sorted;
    for i = 1 to 9 do
      if sorted.(i) = sorted.(i - 1) then Alcotest.fail "duplicate draw"
    done;
    Array.iter (fun v -> if v < 0 || v >= 30 then Alcotest.fail "range") s
  done

let prop_float_in_bounds =
  QCheck.Test.make ~name:"float_in stays in [lo,hi)" ~count:500
    QCheck.(pair (int_bound 10_000) (pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0)))
    (fun (seed, (a, b)) ->
      let lo = Float.min a b and hi = Float.max a b +. 1.0 in
      let rng = Prng.create ~seed in
      let v = Prng.float_in rng ~lo ~hi in
      v >= lo && v < hi)

let prop_bernoulli_extremes =
  QCheck.Test.make ~name:"bernoulli 0 and 1 are deterministic" ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      (not (Prng.bernoulli rng ~p:0.0)) && Prng.bernoulli rng ~p:1.0)

(* [advance n] is an O(1) jump to where [n] float draws would leave the
   stream; the next draws must agree bit for bit. *)
let test_advance () =
  for n = 0 to 1000 do
    let drawn = Prng.create ~seed:n and jumped = Prng.create ~seed:n in
    for _ = 1 to n do
      ignore (Prng.float drawn ~bound:1.0)
    done;
    Prng.advance jumped n;
    if Prng.bits64 drawn <> Prng.bits64 jumped then
      Alcotest.failf "advance %d differs from %d draws" n n
  done;
  Alcotest.check_raises "negative"
    (Invalid_argument "Prng.advance: negative count") (fun () ->
      Prng.advance (Prng.create ~seed:1) (-1))

let () =
  Alcotest.run "prng"
    [
      ( "core",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_decorrelated;
          Alcotest.test_case "advance = n draws" `Quick test_advance;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniform;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sampling w/o replacement" `Quick
            test_sample_without_replacement;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_float_in_bounds; prop_bernoulli_extremes ] );
    ]
