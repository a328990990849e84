(** Process-wide pipeline telemetry: atomic counters and phase spans.

    Disabled by default; enabled when the [SLC_TELEMETRY] environment
    variable is set to anything other than ["0"] or [""], or by calling
    {!enable}.  While disabled every instrumentation call is a single
    boolean load — the hot paths (Newton loop, LM damping schedule) are
    additionally instrumented only at attempt granularity, so the
    [BENCH_*.json] kernels are unaffected either way.

    Counters may be bumped concurrently from worker domains (they are
    [Atomic.t]); spans accumulate wall-clock time and are intended for
    the single-threaded orchestration layer. *)

type counter

val on : unit -> bool
(** Is collection currently enabled? *)

val enable : unit -> unit

val disable : unit -> unit

val incr : counter -> unit
(** No-op while disabled. *)

val add : counter -> int -> unit
(** No-op while disabled. *)

val read : counter -> int

val counter_name : counter -> string

(** {2 Pipeline counters}

    One per observable event class; keep names stable — they are the
    keys of the telemetry JSON. *)

val simulations : counter
(** Transient simulator runs. *)

val sim_retries : counter
(** Measurement-window retries. *)

val sim_failures : counter
(** Simulations that raised after recovery. *)

val newton_iters : counter
(** Newton iterations, all solves. *)

val newton_rejects : counter
(** Failed Newton attempts (step rejected). *)

val transient_steps : counter
(** Accepted time steps. *)

val recovery_attempts : counter
(** Escalation-ladder rungs tried. *)

val recovery_rescues : counter
(** Runs saved by a ladder rung. *)

val degraded_runs : counter
(** Runs completed with a degraded flag. *)

val dc_gmin_fallbacks : counter
(** DC solves that needed gmin stepping. *)

val dc_source_fallbacks : counter
(** DC solves that needed source stepping. *)

val lm_iters : counter
(** Levenberg–Marquardt iterations. *)

val lm_non_finite : counter
(** LM steps rejected on non-finite cost. *)

val template_hits : counter
(** Harness compiled-template cache hits. *)

val template_misses : counter

val oracle_hits : counter
(** Oracle query-cache hits. *)

val oracle_misses : counter

val trained_hits : counter
(** Oracle trained-predictor cache hits. *)

val trained_misses : counter

val pool_chunks : counter
(** Worker-pool chunk claims. *)

val store_hits : counter
(** Persistent-store artifact loads that avoided recomputation. *)

val store_misses : counter
(** Persistent-store lookups that found nothing (artifact computed
    and written). *)

val store_checkpoints : counter
(** Checkpoint files written during statistical extraction. *)

val store_resumed_seeds : counter
(** Seeds whose fits were recovered from a checkpoint instead of
    being re-simulated. *)

val degraded_seeds : counter
(** Statistical seeds fitted on a partial design. *)

val failed_seeds : counter
(** Statistical seeds dropped entirely. *)

val gpr_fallbacks : counter
(** Predictors where the analytical 4-parameter fit exceeded its
    residual threshold and a GPR fallback model was trained instead
    (see {!Slc_core.Char_flow}). *)

val server_connections : counter
(** Connections accepted by the characterization server. *)

val server_requests : counter
(** Requests answered by the characterization server (all
    connections). *)

val server_errors : counter
(** Server requests answered with an [err] response. *)

type span

val span_simulate : span
(** [Harness.simulate] wall time, one call per measurement that reaches
    the solver (retries included in its time) — so one per lane of
    [Harness.simulate_batch].  Invalid points and injected faults are
    rejected before the span opens. *)

val span_fit : span
(** Per-seed model fitting. *)

val span_extract : span
(** [Statistical.extract_population]. *)

val span_baseline : span
(** [Statistical.monte_carlo_baseline]. *)

val with_span : span -> (unit -> 'a) -> 'a
(** Runs the thunk, accumulating its wall time and invocation count
    into the span when enabled; just runs it when disabled. *)

(** {2 Snapshots}

    An immutable reading of every counter at one instant, diffable —
    what the characterization server reports per connection ("what did
    the process spend while this connection was open").  Counters can
    be read whether or not collection is enabled; a snapshot taken
    while disabled simply reads the frozen values. *)

type snapshot = (string * int) list
(** [(counter name, value)] in counter-creation order. *)

val snapshot : unit -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-counter [after - before], in [after]'s order.  A counter
    missing from [before] (an older snapshot from before the counter
    existed) diffs against 0. *)

val snapshot_value : snapshot -> string -> int
(** The named counter's reading; 0 when absent. *)

val reset : unit -> unit
(** Zero every counter and span (keeps the enabled/disabled state). *)

val dump_json : unit -> string
(** The whole telemetry state as a JSON object:
    [{ "enabled": bool, "counters": {name: int},
       "spans": {name: {"count": int, "seconds": float}} }]. *)

val report : Format.formatter -> unit
(** Human-oriented dump of every non-zero counter and span. *)
