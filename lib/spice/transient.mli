(** Nonlinear transient circuit simulation.

    Nodal analysis with ground-referenced voltage sources eliminated
    (their nodes are pinned), backward-Euler time integration and a
    damped Newton solve at every step.  Adaptive step control: the step
    is halved when Newton fails and grown after easy steps; stimulus
    breakpoints are always hit exactly.

    This is the "SPICE" of the reproduction — the gold-standard engine
    every characterization method is measured against. *)

type integrator = Backward_euler | Trapezoidal
(** Backward Euler is robustly damped (first order); trapezoidal is
    second-order accurate and preferred when waveform fidelity matters
    (it is started with one BE step and falls back to BE on rejected
    steps). *)

type options = {
  integrator : integrator;
  tstop : float;        (** simulation end time, s *)
  dt_init : float;      (** first step size, s *)
  dt_min : float;       (** giving-up threshold for step halving *)
  dt_max : float;       (** cap on step growth *)
  abstol : float;       (** Newton residual tolerance, A *)
  dxtol : float;        (** Newton update tolerance, V *)
  max_newton : int;     (** Newton iterations per attempt *)
  gmin : float;         (** conductance to ground on every node, S *)
  breakpoints : float list;  (** times the grid must include *)
}

val default_options : tstop:float -> options
(** Sensible defaults for picosecond-scale digital transients:
    trapezoidal integration, [dt_init = tstop/400],
    [dt_max = tstop/100], [dt_min = tstop*1e-7], [abstol = 1e-12],
    [dxtol = 1e-7], [max_newton = 40], [gmin = 1e-12]. *)

(** Convergence failures raise {!Slc_obs.Slc_error.No_convergence}: a
    typed diagnostic record (phase, simulated time reached, step size,
    Newton iteration count, residual norm, recovery rungs attempted)
    instead of the bare string the solver used to throw.  The harness
    layer annotates it with the arc/tech/seed/ξ-point context. *)

val dc_operating_point : Netlist.t -> at:float -> float array
(** DC solution with sources evaluated at time [at]; returns the full
    node-voltage vector (index = node id).  Falls back to gmin stepping
    and then source stepping.  Raises
    {!Slc_obs.Slc_error.No_convergence} if everything fails. *)

val dc_sweep :
  Netlist.t -> node:Netlist.node -> values:float array -> float array array
(** Replaces the stimulus of the pinned [node] by each value in turn
    and returns the DC solution per value (continuation: each solve
    starts from the previous solution).  Used for transfer curves. *)

type compiled
(** A netlist compiled for fast stamping: immutable topology (node
    indices of every element) plus the per-instance parameter values.
    Compiling once and {!respecialize}-ing per run avoids rebuilding
    the structure when only parameter values change between runs. *)

val compile : Netlist.t -> compiled
(** Validates and flattens the netlist.  Element order is the netlist
    insertion order. *)

val node_count : compiled -> int

val respecialize :
  compiled ->
  mosfets:Slc_device.Mosfet.params array ->
  caps:float array ->
  sources:Stimulus.t array ->
  compiled
(** A new compiled circuit sharing the topology of the argument but
    carrying the given device parameters, capacitance values and source
    stimuli (in compiled element order).  The arrays must match the
    original element counts; zero capacitances are stamped as exact
    zeros, so a slot can be "turned off" without changing topology.
    The result is independent of the original: safe to use from
    another domain. *)

type workspace
(** Per-run scratch (Jacobian, residual, RHS, pivots, previous-step
    state) sized for one compiled circuit.  A workspace is reused by
    every Newton iteration of a run so the inner loop allocates
    nothing; it is NOT thread-safe — use one workspace per domain. *)

val make_workspace : compiled -> workspace

type result

val run : ?record:int array -> options -> Netlist.t -> result
(** Simulates from a DC operating point at [t = 0] to [tstop].  When
    [record] is given, only those node voltages are kept per accepted
    step (waveforms of other nodes are unavailable); by default every
    node is recorded. *)

val run_compiled :
  ?workspace:workspace -> ?record:int array -> options -> compiled -> result
(** As {!run} on an already-compiled circuit.  [workspace] (sized by
    {!make_workspace} for a circuit of the same shape) is reused when
    given, so back-to-back runs allocate no solver buffers at all. *)

val run_recovered :
  ?workspace:workspace ->
  ?record:int array ->
  ?max_recovery:int ->
  options ->
  compiled ->
  result
(** {!run_compiled} behind a convergence-recovery escalation ladder.
    When the plain run raises [No_convergence], up to [max_recovery]
    (default 3, the full ladder) rungs re-run the transient with
    progressively more forgiving options:

    + [tight-step] — initial step divided by 16 (full-quality result);
    + [gmin-boost] — gmin × 1000 and a smaller initial step (result is
      flagged {!degraded});
    + [relaxed-tol] — [abstol]/[dxtol] relaxed by 10⁴ with absolute
      floors of 1e-9 A / 1e-5 V (flagged {!degraded}).

    DC-level gmin stepping and source stepping always run inside every
    attempt's operating-point solve.  If every rung fails, the ORIGINAL
    failure is re-raised with [recovery] listing the rungs tried. *)

val dc_sweep_compiled :
  ?workspace:workspace ->
  compiled ->
  node:Netlist.node ->
  values:float array ->
  float array array
(** As {!dc_sweep} on an already-compiled circuit.  The swept source's
    stimulus is temporarily replaced per point and restored on ALL
    exits (including failures), so a compiled circuit shared through a
    cache is never left corrupted; fallback solves for a hard sweep
    point run against the sweep value itself. *)

val times : result -> float array

val waveform : result -> Netlist.node -> Waveform.t
(** Raises [Invalid_argument] for a node that was not recorded. *)

val newton_iterations_total : result -> int
(** Total Newton iterations spent — a proxy for simulation cost. *)

val steps_taken : result -> int

val degraded : result -> bool
(** True when the run only completed under a recovery rung that relaxed
    the numerics (gmin boost or tolerance relaxation); the waveforms
    are usable but should be surfaced as lower-confidence. *)

val recovery_log : result -> string list
(** The escalation rungs attempted for this run, in order ([[]] for a
    run that converged at its given options). *)
