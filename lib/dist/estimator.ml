module Axis = Genas_model.Axis
module Interval = Genas_interval.Interval

type t = {
  axis : Axis.t;
  exact : bool;  (** one bin per inhabited discrete point *)
  bins : int;
  counts : float array;
  mutable total : int;
  mutable dropped : int;
}

let create ?(bins = 64) axis =
  if bins <= 0 then invalid_arg "Estimator.create: bins must be positive";
  let exact = axis.Axis.discrete && Axis.size axis <= float_of_int bins in
  let bins = if exact then int_of_float (Axis.size axis) else bins in
  { axis; exact; bins; counts = Array.make bins 0.0; total = 0; dropped = 0 }

let axis t = t.axis

(* [bin_of] and [record] are inlined into both entry points, so
   [add_int] bins its coordinate as an unboxed local float and
   allocates nothing. *)
let[@inline] bin_of t x =
  if t.exact then int_of_float (x -. t.axis.Axis.lo)
  else begin
    let lo = t.axis.Axis.lo and hi = t.axis.Axis.hi in
    if hi <= lo then 0
    else
      let f = (x -. lo) /. (hi -. lo) in
      Stdlib.min (t.bins - 1) (int_of_float (f *. float_of_int t.bins))
  end

let[@inline] record t x =
  if
    x < t.axis.Axis.lo || x > t.axis.Axis.hi
    || (t.axis.Axis.discrete && Float.rem x 1.0 <> 0.0)
  then t.dropped <- t.dropped + 1
  else begin
    let b = bin_of t x in
    t.counts.(b) <- t.counts.(b) +. 1.0;
    t.total <- t.total + 1
  end

let add t x = record t x

let add_int t i = record t (float_of_int i)

let count t = t.total

let dropped t = t.dropped

let reset t =
  Array.fill t.counts 0 t.bins 0.0;
  t.total <- 0;
  t.dropped <- 0

let merge_into ~from t =
  if not (Axis.equal from.axis t.axis) then
    invalid_arg "Estimator.merge_into: mismatched axes";
  if from.bins <> t.bins || from.exact <> t.exact then
    invalid_arg "Estimator.merge_into: mismatched bin layout";
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) +. c) from.counts;
  t.total <- t.total + from.total;
  t.dropped <- t.dropped + from.dropped

let estimate ?(smoothing = 0.0) t =
  if smoothing < 0.0 then invalid_arg "Estimator.estimate: negative smoothing";
  if t.total = 0 && smoothing = 0.0 then
    invalid_arg "Estimator.estimate: no observations";
  if t.exact then
    Dist.of_atoms t.axis
      (List.init t.bins (fun i ->
           (t.axis.Axis.lo +. float_of_int i, t.counts.(i) +. smoothing)))
  else begin
    let lo = t.axis.Axis.lo and hi = t.axis.Axis.hi in
    let width = (hi -. lo) /. float_of_int t.bins in
    let pieces =
      List.init t.bins (fun i ->
          let a = lo +. (float_of_int i *. width) in
          let b = if i = t.bins - 1 then hi else a +. width in
          ( Interval.make_exn ~hi_closed:(i = t.bins - 1) ~lo:a ~hi:b (),
            t.counts.(i) +. smoothing ))
    in
    Dist.of_pieces t.axis pieces
  end

module Export = struct
  type nonrec t = {
    exact : bool;
    bins : int;
    counts : float array;
    total : int;
    dropped : int;
  }
end

let export t =
  {
    Export.exact = t.exact;
    bins = t.bins;
    counts = Array.copy t.counts;
    total = t.total;
    dropped = t.dropped;
  }

let import t (e : Export.t) =
  if e.Export.bins <> t.bins || e.Export.exact <> t.exact then
    Error "Estimator.import: mismatched bin layout"
  else if Array.length e.Export.counts <> t.bins then
    Error "Estimator.import: counts length disagrees with bins"
  else begin
    Array.blit e.Export.counts 0 t.counts 0 t.bins;
    t.total <- e.Export.total;
    t.dropped <- e.Export.dropped;
    Ok ()
  end

let of_export axis e =
  let fresh = create ~bins:(Stdlib.max 1 e.Export.bins) axis in
  match import fresh e with
  | Ok () -> Ok fresh
  | Error _ -> Error "Estimator.of_export: layout does not fit the axis"

let l1_on_grid ?(bins = 64) a b =
  if not (Axis.equal (Dist.axis a) (Dist.axis b)) then
    invalid_arg "Estimator.l1_on_grid: mismatched axes";
  let ax = Dist.axis a in
  if ax.Axis.discrete && Axis.size ax <= float_of_int bins then begin
    let n = int_of_float (Axis.size ax) in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let p = Interval.point (ax.Axis.lo +. float_of_int i) in
      acc := !acc +. Float.abs (Dist.prob_interval a p -. Dist.prob_interval b p)
    done;
    !acc
  end
  else begin
    let lo = ax.Axis.lo and hi = ax.Axis.hi in
    let width = (hi -. lo) /. float_of_int bins in
    let acc = ref 0.0 in
    for i = 0 to bins - 1 do
      let x = lo +. (float_of_int i *. width) in
      let y = if i = bins - 1 then hi else x +. width in
      let itv = Interval.make_exn ~hi_closed:(i = bins - 1) ~lo:x ~hi:y () in
      acc := !acc +. Float.abs (Dist.prob_interval a itv -. Dist.prob_interval b itv)
    done;
    !acc
  end
