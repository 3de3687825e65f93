type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64: one additive step, then a 64-bit finalizer (murmur-style
   xor-shift-multiply) that turns the weak counter sequence into a
   high-quality stream. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* Each draw adds [golden_gamma] to the state, so skipping [n] draws is
   one multiply-add (mod 2^64). *)
let advance t n =
  if n < 0 then invalid_arg "Prng.advance: negative count";
  t.state <- Int64.add t.state (Int64.mul (Int64.of_int n) golden_gamma)

let split t =
  (* Mixing with a distinct finalizer constant keeps the child stream
     decorrelated from the parent's continuation. *)
  let s = bits64 t in
  { state = mix (Int64.logxor s 0x5851F42D4C957F2DL) }

let bits53 t =
  (* Top 53 bits as a float in [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. (1.0 /. 9007199254740992.0)

let float t ~bound = bits53 t *. bound

let float_in t ~lo ~hi = lo +. (bits53 t *. (hi -. lo))

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the smallest covering power of two keeps
     the draw exactly uniform. *)
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (bound - 1)))
  else begin
    let rec draw () =
      let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
      let v = r mod bound in
      if r - v > max_int - bound + 1 then draw () else v
    in
    draw ()
  end

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t ~bound:(hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p =
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  bits53 t < p

let gaussian t ~mu ~sigma =
  (* Box–Muller; we draw until u1 is nonzero so log is finite. *)
  let rec u () =
    let x = bits53 t in
    if x > 0.0 then x else u ()
  in
  let u1 = u () and u2 = bits53 t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let rec u () =
    let x = bits53 t in
    if x > 0.0 then x else u ()
  in
  -.log (u ()) /. rate

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(int t ~bound:(Array.length arr))

let weighted_index t w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Prng.weighted_index: empty weights";
  let total = Array.fold_left (fun acc x ->
      if x < 0.0 then invalid_arg "Prng.weighted_index: negative weight";
      acc +. x) 0.0 w
  in
  if total <= 0.0 then invalid_arg "Prng.weighted_index: all-zero weights";
  let target = float t ~bound:total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || n < 0 || k > n then
    invalid_arg "Prng.sample_without_replacement: need 0 <= k <= n";
  (* Partial Fisher–Yates over an index array: O(n) setup, O(k) draws. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t ~lo:i ~hi:(n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
