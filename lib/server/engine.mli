(** The resident query engine behind [slc serve] (and the [slc query]
    local mode): every expensive artifact a request needs — the learned
    prior, trained Bayesian banks, Oracle query caches, extracted
    statistical populations — is built on first use and kept for the
    life of the engine, so a warm repeat of any request costs zero
    simulator runs.

    Thread-safety: every memo table is a {!Slc_num.Memo}, which
    publishes first-build-wins with the build running {e outside} its
    locks (the same memo as [Oracle.of_predictors] and the
    trained-bank cache).  Concurrent misses on the same key may compute more than once;
    builds are deterministic, so every caller then sees the single
    published value and results are independent of interleaving. *)

type t

val create :
  ?store:Slc_store.Store.t ->
  ?prior_for:(Slc_device.Tech.t -> Slc_core.Prior.pair) ->
  ?bank:(Slc_device.Tech.t -> k:int -> Slc_ssta.Oracle.t) ->
  unit ->
  t
(** [?store] backs every tier with the persistent artifact store:
    priors, trained predictors and populations are loaded when present
    and written back when computed, so a freshly started server warm
    from a store answers with zero simulations.

    [?prior_for] overrides where priors come from (default: learn from
    [Tech.historical_for], through the store when given, memoized per
    technology).  [?bank] overrides the delay/slew oracle constructor
    (default: [Oracle.bayes_bank] over [prior_for]) — tests inject
    cheap synthetic banks here. *)

val exec : t -> Protocol.request -> Protocol.response
(** Answers one request.  Re-entrant: any number of threads may call
    it concurrently.  Never raises — well-formed-but-unanswerable
    requests (unknown technology, netlist parse errors, simulation
    failures) come back as [Err (Domain, _)], anything unexpected as
    [Err (Internal, _)].  [Stats] reports process-wide counters only;
    the server layer prepends per-connection fields. *)

val stats : t -> (string * string) list
(** Process-wide counters: [sims] (the always-on simulator-run count)
    plus the [Slc_obs.Telemetry] cache counters (all 0 unless telemetry
    is enabled). *)
