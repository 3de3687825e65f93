module Axis = Genas_model.Axis
module Domain = Genas_model.Domain
module Value = Genas_model.Value
module Event = Genas_model.Event
module Schema = Genas_model.Schema
module Overlay = Genas_interval.Overlay
module Dist = Genas_dist.Dist
module Estimator = Genas_dist.Estimator
module Decomp = Genas_filter.Decomp

type t = {
  decomp : Decomp.t;
  hists : Estimator.t array;
  assumed : Dist.t option array;
  profile_weights : float array option array;
  priorities : (int, float) Hashtbl.t;
  mutable events_seen : int;
}

let create ?(bins = 64) decomp =
  let n = Decomp.arity decomp in
  {
    decomp;
    hists = Array.init n (fun i -> Estimator.create ~bins decomp.Decomp.axes.(i));
    assumed = Array.make n None;
    profile_weights = Array.make n None;
    priorities = Hashtbl.create 16;
    events_seen = 0;
  }

let decomp t = t.decomp

let observe_coords t coords =
  Array.iteri (fun attr c -> Estimator.add t.hists.(attr) c) coords;
  t.events_seen <- t.events_seen + 1

(* Bin each attribute in place. An in-domain int goes through
   [Estimator.add_int] and an in-domain float is already boxed in its
   value, so neither allocates; every other value takes [Axis.coord]
   and an off-domain one is binned as [nan]. The two fast arms mirror
   [Axis.coord]'s first two; test_stats checks that both routes bin
   alike. *)
let observe_event t event =
  let schema = t.decomp.Decomp.schema in
  for attr = 0 to Array.length t.hists - 1 do
    let h = t.hists.(attr) in
    let dom = (Schema.attribute schema attr).Schema.domain in
    match (dom, Event.value event attr) with
    | Domain.Int_range { lo; hi }, Value.Int x when lo <= x && x <= hi ->
      Estimator.add_int h x
    | Domain.Float_range { lo; hi }, Value.Float x when lo <= x && x <= hi ->
      Estimator.add h x
    | _, v -> (
      match Axis.coord dom v with
      | Some c -> Estimator.add h c
      | None -> Estimator.add h Float.nan)
  done;
  t.events_seen <- t.events_seen + 1

let events_seen t = t.events_seen

let assume_event_dist t ~attr dist =
  if not (Axis.equal (Dist.axis dist) t.decomp.Decomp.axes.(attr)) then
    invalid_arg "Stats.assume_event_dist: axis mismatch";
  t.assumed.(attr) <- Some dist

let clear_assumed t ~attr = t.assumed.(attr) <- None

let history_smoothing = 0.5

let event_dist t ~attr =
  match t.assumed.(attr) with
  | Some d -> d
  | None ->
    if Estimator.count t.hists.(attr) > 0 then
      Estimator.estimate ~smoothing:history_smoothing t.hists.(attr)
    else Dist.uniform t.decomp.Decomp.axes.(attr)

let event_cell_probs t ~attr =
  Dist.cell_probs (event_dist t ~attr) t.decomp.Decomp.overlays.(attr)

let priority t ~id = Option.value ~default:1.0 (Hashtbl.find_opt t.priorities id)

let set_priority t ~id w =
  if w < 0.0 then invalid_arg "Stats.set_priority: negative priority";
  Hashtbl.replace t.priorities id w

let profile_cell_weights t ~attr =
  match t.profile_weights.(attr) with
  | Some w -> Array.copy w
  | None ->
    let cells = t.decomp.Decomp.overlays.(attr).Overlay.cells in
    let total =
      Array.fold_left
        (fun acc id -> acc +. priority t ~id)
        0.0 t.decomp.Decomp.ids
    in
    Array.map
      (fun (c : Overlay.cell) ->
        if total <= 0.0 then 0.0
        else
          List.fold_left (fun acc id -> acc +. priority t ~id) 0.0 c.Overlay.ids
          /. total)
      cells

let assume_profile_weights t ~attr weights =
  let ncells = Array.length t.decomp.Decomp.overlays.(attr).Overlay.cells in
  if Array.length weights <> ncells then
    invalid_arg "Stats.assume_profile_weights: length mismatch";
  t.profile_weights.(attr) <- Some (Array.copy weights)

let d0_event_prob t ~attr =
  (* The semantic zero-subdomain is empty when a live profile leaves
     the attribute unconstrained (see Decomp.d0_share). *)
  if Decomp.dont_care_count t.decomp ~attr > 0 then 0.0
  else
    let probs = event_cell_probs t ~attr in
    Array.fold_left
      (fun acc zc -> acc +. probs.(zc))
      0.0
      (Overlay.zero_cells t.decomp.Decomp.overlays.(attr))

let reset_observations t =
  Array.iter Estimator.reset t.hists;
  t.events_seen <- 0

module Export = struct
  type t = {
    hists : Estimator.Export.t array;
    events_seen : int;
    priorities : (int * float) list;
  }
end

let export t =
  {
    Export.hists = Array.map Estimator.export t.hists;
    events_seen = t.events_seen;
    priorities =
      Hashtbl.fold (fun id w acc -> (id, w) :: acc) t.priorities []
      |> List.sort compare;
  }

let import t (e : Export.t) =
  if Array.length e.Export.hists <> Array.length t.hists then
    Error "Stats.import: attribute arity mismatch"
  else begin
    let rec hists i =
      if i >= Array.length t.hists then Ok ()
      else
        match Estimator.import t.hists.(i) e.Export.hists.(i) with
        | Error _ as err -> err
        | Ok () -> hists (i + 1)
    in
    match hists 0 with
    | Error _ as err -> err
    | Ok () ->
      t.events_seen <- e.Export.events_seen;
      Hashtbl.reset t.priorities;
      List.iter
        (fun (id, w) -> Hashtbl.replace t.priorities id w)
        e.Export.priorities;
      Ok ()
  end

let absorb t ~from =
  if t != from then begin
    Array.iteri
      (fun attr h ->
        if attr < Array.length from.hists then
          Estimator.merge_into ~from:from.hists.(attr) h)
      t.hists;
    Array.iteri
      (fun attr assumed ->
        if
          attr < Array.length t.assumed
          && t.assumed.(attr) = None
          && Option.is_some assumed
        then t.assumed.(attr) <- assumed)
      from.assumed;
    t.events_seen <- t.events_seen + from.events_seen
  end
