(** Delay/slew oracles: the interface between timing analysis and a
    characterized library.  An oracle answers "delay and output slew of
    this arc at this input condition" — from the compact Bayesian
    model, from an NLDM table, or straight from the simulator (for
    validation). *)

type t = {
  query : Slc_cell.Arc.t -> Slc_cell.Harness.point -> float * float;
      (** [(delay, output slew)] *)
  label : string;
}

val per_arc : (Slc_cell.Arc.t -> 'a) -> Slc_cell.Arc.t -> 'a
(** [per_arc build] is [build] memoized per arc name in a fresh
    {!Slc_num.Memo}: domain-safe, first-build-wins, [build] running
    outside any lock (so it must be deterministic). *)

val of_predictors :
  label:string ->
  (Slc_cell.Arc.t -> Slc_core.Char_flow.predictor) ->
  t
(** Backed by per-arc predictors (e.g. {!Slc_core.Char_flow.train_bayes});
    the function is memoized with {!per_arc}.  Concurrent queries (the
    levelized parallel timing pass, the characterization server) may
    build one arc more than once; every caller then sees the single
    published value. *)

val of_library : Slc_cell.Library.t -> t
(** Backed by interpolated NLDM tables; raises [Not_found] when queried
    for an arc the library does not contain. *)

val of_simulator :
  ?seed:Slc_device.Process.seed -> Slc_device.Tech.t -> t
(** Ground truth: every query is one transient simulation. *)

val bayes_bank :
  ?seed:Slc_device.Process.seed ->
  ?store:Slc_store.Store.t ->
  ?gpr_fallback:float ->
  prior:Slc_core.Prior.pair ->
  Slc_device.Tech.t ->
  k:int ->
  t
(** Convenience: an oracle that trains a Bayesian/MAP predictor with
    [k] simulations for each arc on first use.

    With [?gpr_fallback] (a mean-|relative-error| threshold), each
    arc's analytical MAP fit is checked against its own [k]-point
    training dataset and replaced by a nonparametric GPR model
    ({!Slc_core.Char_flow.with_gpr_fallback}) when the 4-parameter
    form fits poorly — the low-Vdd/break-point regime.  The threshold
    participates in both cache tiers' keys; without it, behaviour and
    store keys are byte-identical to earlier releases.

    Trained predictors are cached process-wide, keyed by prior
    {e content} ({!Slc_store.Store.prior_fingerprint}), technology
    fingerprint, [k], [seed], arc and fallback threshold — the
    {!Slc_store.Store.predictor_key} the persistent tier uses too.
    Rebuilding a [bayes_bank] value with the same prior, or with a
    content-equal copy of it (e.g. one reloaded from disk), reuses the
    existing predictors and costs zero simulations.  Training is
    deterministic, so the cache never changes results.

    With [?store], a second {e persistent} tier sits behind the
    in-process cache: an arc missing from the process cache is looked
    up in the artifact store under the same key, and only trained
    (then persisted) when the store misses too.  A later process
    querying the same bank pays zero simulations, and the rebuilt
    predictors answer bitwise identically to freshly trained ones. *)

(** {2 Query-result caching} *)

type cache
(** A mutable, domain-safe map from (arc, point) to query results.
    Oracle queries are pure, so identical queries can reuse the first
    answer.  Within one timing pass a hit needs two gates with the same
    arc, input slew and output load, which generated designs almost
    never have (each gate sees its own wire load); the cache pays off
    when the caller keeps it across passes or requests. *)

val make_cache : unit -> cache
(** An empty exact cache: keys are the literal point coordinates, so
    results are bitwise identical to the uncached oracle.  It is a
    sharded {!Slc_num.Memo}, so concurrent queries — a levelized
    parallel timing pass — contend on independent locks; hits and
    misses count into [oracle_hits]/[oracle_misses]. *)

val cached : cache -> t -> t
(** [cached c oracle] wraps [oracle] so queries go through [c].  A
    cache may outlive the wrapper and be shared across analyses (only
    meaningful while the underlying oracle answers consistently). *)

val cache_size : cache -> int
(** Number of distinct memoized queries. *)
