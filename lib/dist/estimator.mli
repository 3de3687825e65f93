(** Streaming histogram estimation of attribute distributions.

    The adaptive algorithm "has to maintain a history of events in
    order to determine the event distribution" (§5). An estimator is a
    fixed-bin streaming histogram over one axis; [estimate] converts
    the current counts into a {!Dist.t} usable by the selectivity
    measures. Discrete axes with at most [bins] inhabited points are
    counted exactly per point. *)

type t

val create : ?bins:int -> Genas_model.Axis.t -> t
(** [bins] defaults to 64. *)

val axis : t -> Genas_model.Axis.t

val add : t -> float -> unit
(** Record one observed coordinate. Out-of-axis coordinates are
    ignored (counted in [dropped]). *)

val add_int : t -> int -> unit
(** [add_int t i] records exactly what [add t (float_of_int i)] does,
    without allocating. *)

val count : t -> int
(** Number of recorded observations. *)

val dropped : t -> int

val reset : t -> unit

val merge_into : from:t -> t -> unit
(** [merge_into ~from t] adds [from]'s observation counts into [t],
    leaving [from] untouched. Both estimators must have been created
    over the same axis with the same bin count (true for any two
    histograms of the same attribute), so a rebuilt statistics object
    can inherit the history its predecessor learned.

    @raise Invalid_argument on mismatched axes or bin layouts. *)

val estimate : ?smoothing:float -> t -> Dist.t
(** Normalized histogram as a distribution. [smoothing] (default 0) is
    a pseudo-count added to every bin — use a small positive value to
    avoid zero-probability cells when the history is short.

    @raise Invalid_argument if no observations and [smoothing = 0]. *)

(** {1 Serialization}

    A histogram's full observable state as a plain value, for durable
    snapshots. An export is layout-checked on the way back in, so a
    journal written against one schema cannot silently corrupt an
    estimator built for another. *)

module Export : sig
  type t = {
    exact : bool;
    bins : int;
    counts : float array;
    total : int;
    dropped : int;
  }
end

val export : t -> Export.t
(** Deep copy of the current counts and counters. *)

val import : t -> Export.t -> (unit, string) result
(** Replace [t]'s state with the exported one. Fails (leaving [t]
    untouched) unless the bin layout — [bins], [exact], counts length —
    matches exactly. *)

val of_export : Genas_model.Axis.t -> Export.t -> (t, string) result
(** Rebuild a fresh estimator over [axis] holding the exported state.
    Fails when the export's layout is not the one [create] would derive
    for that axis and bin count. *)

val l1_on_grid : ?bins:int -> Dist.t -> Dist.t -> float
(** L1 distance between two distributions on a common axis, measured
    on an equal-width grid ([bins] defaults to 64). Ranges over
    [[0, 2]]; the adaptive engine treats it as the drift signal.

    @raise Invalid_argument on mismatched axes. *)
