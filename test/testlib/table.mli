(** The paper's table workload, built the way the perf benchmark builds
    it: 500 profiles over 3 int attributes in [0,99] (Gaussian values,
    30% don't-care) and 1024 uniform events, from seed 99. *)

type t = {
  schema : Genas_model.Schema.t;
  pset : Genas_profile.Profile_set.t;
  events : Genas_model.Event.t array;
}

val create : unit -> t

val v1a2 : Genas_core.Reorder.spec
(** The V1+A2 reordering the benchmark's main rows use. *)
