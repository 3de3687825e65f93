(** The distribution-based filter engine — the paper's contribution as
    a facade.

    Owns a profile registry, a decomposition snapshot, statistics
    objects, and the (possibly reordered) profile tree; re-snapshots
    automatically when profiles were added or removed since the last
    build. Every filtered event is recorded in the statistics, so a
    later [rebuild] re-optimizes for the observed distribution (use
    {!Adaptive} for automatic re-optimization). *)

type t

val create :
  ?spec:Reorder.spec ->
  ?bins:int ->
  ?metrics:Genas_obs.Metrics.t ->
  ?aggregate:bool ->
  ?delta_cap:int ->
  Genas_profile.Profile_set.t ->
  t
(** [spec] defaults to {!Reorder.default_spec}.

    [metrics] attaches the engine to an observability registry: match
    latency and comparisons-per-event histograms, event/match/
    comparison/rebuild counters, and tree-size gauges (all names in
    docs/OBSERVABILITY.md). Without it ([?metrics:None], the default)
    the match path performs no observability work at all. With it,
    handles are resolved once at construction and each match adds two
    clock reads (3 minor words each, the boxed [int64]s) and
    allocation-free instrument updates.

    [aggregate] (default [false]) turns on subscription aggregation:
    the registry is indexed by a {!Genas_profile.Lattice} and the flat
    matcher is compiled over the covering-minimal roots only, with
    churn folded in incrementally and installed by epoch swaps (see
    docs/SCALING.md). An aggregated engine requires all registry churn
    to go through {!add_profile}/{!remove_profile}; mutating the
    profile set directly leaves the index behind. [delta_cap] bounds
    the structural changes accumulated between swaps (default 512):
    when exceeded, the next churn operation performs the swap — the
    match path itself never recompiles. With [metrics], aggregation
    adds the absorbed/lattice/pending gauges and the epoch-swap
    counter of docs/OBSERVABILITY.md. *)

val spec : t -> Reorder.spec

val set_spec : t -> Reorder.spec -> unit
(** Install a new reordering spec and rebuild the tree. *)

val profiles : t -> Genas_profile.Profile_set.t

(** {1 Registry churn}

    The engine-mediated subscribe/unsubscribe path. On a plain engine
    these are the registry operations followed by the usual lazy
    stale-refresh on the next match; on an aggregated engine they also
    maintain the covering lattice and the epoch-swap delta sets. *)

val add_profile : t -> Genas_profile.Profile.t -> Genas_profile.Profile_set.id
(** Register a profile. Aggregated engines: an insertion into a
    covered region touches only the lattice (no recompilation, ever);
    a structural insertion (new covering root) joins the pending delta
    and is matched by linear scan until the next epoch swap installs a
    recompiled matcher. *)

val add_profile_with_id :
  t -> id:Genas_profile.Profile_set.id -> Genas_profile.Profile.t -> unit
(** Recovery-path variant under an explicit id
    ({!Genas_profile.Profile_set.add_with_id} semantics). *)

val remove_profile : t -> Genas_profile.Profile_set.id -> bool
(** Remove a registration; [true] if the id was live. Aggregated
    engines retire compiled entries by marking them dead (filtered at
    match time) until the next epoch swap. *)

(** {1 Aggregation} *)

val aggregated : t -> bool

val epoch : t -> int
(** Epoch-swap count: how many recompiled root matchers have been
    installed ([0] on plain engines and before the first swap). *)

val pending_rebuild : t -> int
(** Structural changes accumulated since the last swap (uncompiled
    delta roots + dead compiled entries); [0] on plain engines. *)

val swap_due : t -> bool
(** Whether the pending churn exceeds the engine's [delta_cap] — the
    next churn operation (or {!swap_now}) will swap. *)

val swap_now : t -> unit
(** Force an epoch swap: recompile the flat matcher over the current
    covering-minimal roots and install it, absorbing the learned
    event-distribution history. On a plain engine this is {!rebuild}.
    Any background compile in flight is discarded first, so the result
    is deterministic regardless of {!set_async_swaps}. *)

val set_async_swaps : t -> bool -> unit
(** Run epoch-swap recompiles on a background domain instead of the
    calling (publishing) thread. When churn exceeds [delta_cap], the
    compile-heavy phase (decompose, re-statistics, reorder, flat
    compile) is handed to a fresh domain over a snapshot of the
    lattice roots; the result is installed atomically at the next
    churn or match entry once ready, reconciled against any churn that
    landed while it compiled. Matching stays exact throughout — the
    delta/dead tables keep covering the gap, they just drain at
    install time rather than inline. Switching {e off} installs any
    in-flight compile first (joining its domain). No-op on plain
    engines. Default off: synchronous swaps remain bit-deterministic
    for differential tests. *)

val async_swaps : t -> bool

val await_swap : t -> unit
(** Block until any in-flight background compile finishes and install
    it. Call before tearing down an engine with {!set_async_swaps} on
    — an unjoined domain at process exit aborts the runtime. No-op
    when nothing is pending. *)

val absorbed_profiles : t -> int
(** Live profiles the lattice absorbs (not in the covering-minimal
    set); [0] on plain engines. *)

val lattice_roots : t -> int
(** Covering-minimal set size (= live profiles on plain engines). *)

val lattice : t -> Genas_profile.Lattice.t option
(** The aggregation index, for inspection. *)

val tree : t -> Genas_filter.Tree.t
(** The pointer tree: kept for [pp]/[explain] and the analytic cost
    model. The match paths execute its compiled flat form. *)

val flat : t -> Genas_filter.Flat.t
(** The compiled flat-array matcher the match paths execute; recompiled
    at every (re)build. *)

val stats : t -> Stats.t

val ops : t -> Genas_filter.Ops.t
(** Cumulative counters over all events filtered by this engine. *)

val match_event :
  t -> Genas_model.Event.t -> Genas_profile.Profile_set.id list
(** Filter one event: refreshes the tree if the profile set changed,
    records the event in the statistics, counts operations, and
    returns the matched profile ids (ascending).

    Matching runs through the engine's reusable flat cursor, so the
    steady-state path allocates no per-event match lists beyond the
    returned list itself; use {!match_with} to avoid even that. *)

val match_with :
  t -> Genas_model.Event.t -> f:(ids:int array -> len:int -> unit) -> unit
(** Variant of {!match_event} that builds no result list: [f ~ids ~len]
    receives the engine's borrowed cursor buffer whose first [len]
    slots hold the matched ids (ascending). The buffer is overwritten
    by the next match — copy inside [f] if the ids must outlive the
    call. On int attributes nothing allocates, statistics recording
    included: without a metrics registry this path costs 0 minor words
    per event (pinned by [test/test_flat.ml] on the paper's table
    workload). Other attribute kinds box an option or a coordinate per
    attribute in the matcher's lookup and in {!Stats.observe_event}. *)

val match_batch :
  t ->
  Genas_model.Event.t array ->
  Genas_profile.Profile_set.id array array
(** Filter a batch on the calling domain: one ascending id array per
    event, index-aligned. Statistics, operation counters, and metrics
    advance exactly as if each event had gone through {!match_event},
    except that per-event latency histograms are not observed on the
    batch path. *)

val rebuild : t -> unit
(** Re-plan the tree configuration from the current statistics (and
    current profiles) under the engine's spec. *)

val refresh_keeping_history : t -> unit
(** Refresh a stale engine (profiles changed since the last build) like
    the implicit refresh on the next match, except that the observed
    event history of the previous statistics is absorbed into the fresh
    ones ({!Stats.absorb}) before the tree is re-planned — learned
    event distributions survive the profile change instead of being
    restarted. No-op when the engine is not stale. The router uses this
    so one subscription retraction does not reset distribution-based
    reordering network-wide. *)

val report : t -> Cost.report
(** Analytic expectation for the current tree under the current
    statistics. *)

(** {1 Hotness profiling}

    When enabled, single-event and batch matching run through
    {!Genas_filter.Flat.match_into_recorded}, accumulating per-node and
    per-level visit counters and keeping the last traversal path.
    Disabled (the default), matching dispatches the plain loop, which
    takes no recorder argument at all — zero profiling cost by
    construction. *)

val set_profiling : t -> bool -> unit
(** Enable/disable hotness recording. Enabling allocates a fresh
    recorder; counters restart from zero whenever the tree is rebuilt
    (flat node ids change shape). Idempotent. *)

val profiling : t -> bool

val recorder : t -> Genas_filter.Flat.recorder option
(** The live recorder, for direct access to
    {!Genas_filter.Flat.node_visits} / [level_visits]. *)

val last_path : t -> Genas_filter.Flat.path_step list
(** The most recently recorded event's traversal path ([] when
    profiling is off or nothing matched yet). *)

val advisory : ?tolerance:float -> t -> Explain.advisory option
(** {!Explain.advisory} over the recorder's per-level visits against
    the current tree's attribute order; [None] when profiling is
    off. *)

val relayout_now : t -> bool
(** Hotness-guided cache-conscious relayout: reorder the compiled flat
    form's memory layout by the recorder's observed per-node visit
    counts ({!Genas_filter.Flat.relayout} — hot nodes and their edge
    and posting payloads land contiguously) and install it with the
    same single-field-store discipline as the epoch swap. Matching
    behaviour and all operation counters are bit-identical; only
    memory order changes. Returns [false] (and does nothing) when
    profiling is off or no event has been recorded yet; on success the
    recorder restarts fresh against the new layout. The pointer tree,
    statistics, and aggregation state are untouched; a later rebuild
    replaces the layout with the default compile order. *)

(** {1 Journal replay} *)

val replay_observe : t -> Genas_model.Event.t -> unit
(** Record one event in the statistics exactly as the match path would
    — including the implicit stale-refresh (and its history reset) when
    the profile set changed — without matching or counting operations.
    Journal replay uses this to regrow the learned distributions from
    the logged event stream. *)

val restore_ops : t -> Genas_filter.Ops.t -> unit
(** Overwrite the cumulative operation counters with a journaled
    absolute snapshot, advancing the corresponding metrics counters by
    the (non-negative) delta. *)
