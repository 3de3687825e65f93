(* Seeded inputs for every workload.

   The generators live here, not in lib/expt, so that an edit to the
   library's experiment code cannot silently change the traffic this
   benchmark measures. Randomness is a private splitmix64 stream for the
   same reason. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Predicate = Genas_profile.Predicate
module Profile = Genas_profile.Profile

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let bits r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float r =
  Int64.to_float (Int64.shift_right_logical (bits r) 11) *. 0x1.0p-53

(* Uniform on [0, bound). *)
let int r bound = min (bound - 1) (int_of_float (unit_float r *. float_of_int bound))

let int_in r lo hi = lo + int r (hi - lo + 1)

let bernoulli r p = unit_float r < p

let gaussian r ~mu ~sigma =
  let u1 = Float.max 1e-300 (unit_float r) and u2 = unit_float r in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* Three integer attributes a0..a2 over [0, 99]: the paper's normalized
   domain. *)
let attrs = 3

let points = 100

let name i = Printf.sprintf "a%d" i

let schema =
  Schema.create_exn
    (List.init attrs (fun i -> (name i, Domain.int_range ~lo:0 ~hi:(points - 1))))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Stratified draws. Each marginal is hit as exactly as the sample size
   allows and only the placement is random, so two seeds differ in
   which profile or event gets which value, not in how many of each
   there are. The distributions are the workload's own; the seed-to-seed
   spread of the metrics shrinks. *)

(* [n] values of [0, k): each value floor(n/k) or ceil(n/k) times. *)
let balanced r n k = shuffle r (Array.init n (fun i -> i * k / n))

(* Uniform events, the paper's table traffic, balanced per attribute.
   [seq] numbers the event so the wire workload can match deliveries to
   publishes. *)
let events r n =
  let cols = Array.init attrs (fun _ -> balanced r n points) in
  Array.init n (fun i ->
      Event.of_values_exn ~seq:i schema (Array.init attrs (fun a -> Value.Int cols.(a).(i))))

(* Gaussian equality value, centred on the domain, sigma = range/6,
   redrawn until it rounds into the domain. *)
let rec gauss_point r =
  let x =
    int_of_float
      (Float.round (gaussian r ~mu:49.5 ~sigma:(float_of_int (points - 1) /. 6.0)))
  in
  if x < 0 || x >= points then gauss_point r else x

(* [n] Gaussian points at (nearly) evenly spaced quantiles: every 32nd
   order statistic of a sample 32 times larger, shuffled. *)
let gauss_points r n =
  let big = Array.init (32 * n) (fun _ -> gauss_point r) in
  Array.sort compare big;
  shuffle r (Array.init n (fun i -> big.((32 * i) + 16)))

(* Classic profiles: per attribute a Gaussian equality or, with
   probability 0.3, don't-care, never all don't-care. Stratified: the
   number of profiles constraining 1, 2 and 3 attributes is the
   expected one (those constraining one attribute set the notification
   rate), the attributes left out are balanced, and each attribute's
   values are evenly spaced Gaussian quantiles. *)
let classic_profiles r n =
  let p k = Float.pow 0.7 (float_of_int k) *. Float.pow 0.3 (float_of_int (attrs - k)) in
  let weight k = float_of_int (if k = 1 || k = 2 then 3 else 1) *. p k in
  let share k = weight k /. (weight 1 +. weight 2 +. weight 3) in
  let count k = int_of_float (Float.round (float_of_int n *. share k)) in
  let n1 = count 1 and n3 = count 3 in
  let sizes = shuffle r (Array.init n (fun i -> if i < n1 then 1 else if i < n1 + n3 then 3 else 2)) in
  (* A profile of size 1 keeps attribute [pick]; one of size 2 drops it. *)
  let pick = balanced r n attrs in
  let constrains i a =
    match sizes.(i) with 1 -> a = pick.(i) | 2 -> a <> pick.(i) | _ -> true
  in
  let vals =
    Array.init attrs (fun a ->
        let m = ref 0 in
        for i = 0 to n - 1 do
          if constrains i a then incr m
        done;
        gauss_points r !m)
  in
  let next = Array.make attrs 0 in
  Array.init n (fun i ->
      Profile.create_exn schema
        (List.concat
           (List.init attrs (fun a ->
                if not (constrains i a) then []
                else begin
                  let v = vals.(a).(next.(a)) in
                  next.(a) <- next.(a) + 1;
                  [ (name a, Predicate.Eq (Value.Int v)) ]
                end))))

(* Covering-heavy population: [roots] broad single-attribute windows of
   width 6 (a sixteenth of the domain), round-robin over the attributes;
   every other profile is an equality inside a uniformly chosen window,
   narrowed on each other attribute with probability 0.3. Duplicate
   windows collapse, so 512 windows give about 230 covering roots. *)
type windows = (int * int * int) array

let window r attr =
  let w = max 1 (points / 16) in
  let lo = int_in r 0 (points - w) in
  (attr, lo, min (points - 1) (lo + w - 1))

let windows r ~roots : windows = Array.init roots (fun k -> window r (k mod attrs))

let window_profile (attr, lo, hi) =
  Profile.create_exn schema
    [
      ( name attr,
        Predicate.Between
          { lo = Value.Int lo; lo_closed = true; hi = Value.Int hi; hi_closed = true }
      );
    ]

let specialization r (ws : windows) =
  let attr, lo, hi = ws.(int r (Array.length ws)) in
  let extra =
    List.concat
      (List.init attrs (fun j ->
           if j = attr || not (bernoulli r 0.3) then []
           else [ (name j, Predicate.Eq (Value.Int (int r points))) ]))
  in
  Profile.create_exn schema
    ((name attr, Predicate.Eq (Value.Int (int_in r lo hi))) :: extra)

let covering_profiles r ws n =
  Array.init n (fun i ->
      if i < Array.length ws then window_profile ws.(i) else specialization r ws)

(* The covering-heavy node's subscriptions: about 20k profiles over 512
   windows (~230 covering roots), and 1024 further specializations of
   the same windows to churn. *)
let covering r =
  let ws = windows r ~roots:512 in
  let profiles = covering_profiles r ws 20_000 in
  let churn = Array.init 1024 (fun _ -> specialization r ws) in
  (profiles, churn)
