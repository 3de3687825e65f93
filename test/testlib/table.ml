module Schema = Genas_model.Schema
module Axis = Genas_model.Axis
module Event = Genas_model.Event
module Shape = Genas_dist.Shape
module Dist = Genas_dist.Dist
module Reorder = Genas_core.Reorder
module Selectivity = Genas_core.Selectivity
module Workload = Genas_expt.Workload

type t = {
  schema : Schema.t;
  pset : Genas_profile.Profile_set.t;
  events : Event.t array;
}

let create () =
  let attrs = 3 in
  let schema = Workload.normalized_schema ~attrs ~points:100 () in
  let axes =
    Array.init attrs (fun i ->
        Axis.of_domain (Schema.attribute schema i).Schema.domain)
  in
  let rng = Genas_prng.Prng.create ~seed:99 in
  let pset =
    Workload.gen_profiles rng schema
      {
        Workload.p = 500;
        dontcare = Array.make attrs 0.3;
        value_dists = Array.map (fun ax -> Shape.gauss () ax) axes;
        range_width = None;
      }
  in
  let dists = Array.map Dist.uniform axes in
  let events =
    Array.init 1024 (fun _ ->
        let coords = Workload.event_coords rng dists in
        Event.of_values_exn schema
          (Array.mapi
             (fun i c -> Axis.value (Schema.attribute schema i).Schema.domain c)
             coords))
  in
  { schema; pset; events }

let v1a2 =
  {
    Reorder.attr_choice = Reorder.Attr_measured (Selectivity.A2, `Descending);
    value_choice = `Measure Selectivity.V1;
  }
