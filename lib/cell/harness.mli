(** Characterization testbench.

    Builds the transistor netlist of a cell under one timing arc — ramp
    driver on the switching pin, other inputs tied to their
    non-controlling rails, load capacitor on the output, per-device
    parasitics, process variation applied per seed — runs the transient
    solver, and measures propagation delay and output slew.

    This is the "electrical simulation" block of the paper's flow
    (Fig. 4); every characterization method pays its cost in calls to
    {!simulate}. *)

type point = { sin : float; cload : float; vdd : float }
(** One library input condition [ξ = (Sin, Cload, Vdd)]. *)

val pp_point : Format.formatter -> point -> unit
(** Human-readable rendering in engineering units (ps, fF, V). *)

val point_of_vec : Slc_num.Vec.t -> point
(** From a 3-vector [(sin, cload, vdd)]. *)

val vec_of_point : point -> Slc_num.Vec.t
(** Inverse of {!point_of_vec}. *)

type measurement = {
  td : float;    (** 50%-to-50% propagation delay, s *)
  sout : float;  (** output transition time (20–80 extrapolated), s *)
  energy : float;
      (** switching energy drawn from the supply during the transition
          (leakage-corrected), J.  Rising outputs draw roughly
          [(Cload + Cpar) * Vdd^2]; falling outputs only pay crowbar
          and internal charge. *)
  newton_iters : int;
  time_steps : int;
  retries : int; (** extra transient runs needed to capture the edge *)
  degraded : bool;
      (** the transient only converged under a recovery rung that
          relaxed the numerics (see {!Slc_spice.Transient.run_recovered});
          the measurement is usable but lower-confidence *)
  recovery : string list;
      (** recovery rungs attempted for the successful run ([[]] when the
          solver converged at its given options) *)
}

val instantiate :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Slc_spice.Netlist.t ->
  Cells.t ->
  gate_node:(string -> Slc_spice.Netlist.node) ->
  out:Slc_spice.Netlist.node ->
  vdd_node:Slc_spice.Netlist.node ->
  unit
(** Expands one cell instance into an existing netlist: pull-up and
    pull-down networks with per-device process variation and parasitic
    capacitances.  [gate_node] maps each input pin to its driving
    node.  Used by the single-arc testbench and by multi-stage chains
    ({!Chain}). *)

val build_netlist :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Arc.t ->
  point ->
  Slc_spice.Netlist.t * Slc_spice.Netlist.node * Slc_spice.Netlist.node
(** [(netlist, in_node, out_node)] for the given arc and condition
    (ramp starts at an internal offset time). *)

val simulate :
  ?seed:Slc_device.Process.seed ->
  Slc_device.Tech.t ->
  Arc.t ->
  point ->
  measurement
(** Runs the testbench behind the solver's recovery ladder
    ({!Slc_spice.Transient.run_recovered}), retrying with longer
    windows when the output edge is not captured.  Failures are typed:
    {!Slc_obs.Slc_error.Simulation_failed} after the retry budget is
    exhausted, or {!Slc_obs.Slc_error.No_convergence} when even the
    recovery ladder cannot converge — both carry the
    arc/tech/seed/ξ-point context. *)

val simulate_batch :
  Slc_device.Tech.t ->
  Arc.t ->
  (Slc_device.Process.seed * point) array ->
  (measurement, exn) result array
(** Batched {!simulate}: one {!simulate} per (seed, point) lane of the
    same (tech, arc), spread over the domain pool by
    {!Slc_num.Parallel.try_map}.  Lane [i]'s outcome (value, counted
    simulations and telemetry) is exactly that of
    [simulate ~seed:(fst lanes.(i)) tech arc (snd lanes.(i))], with
    failures returned as [Error] instead of raised, and every lane is
    attempted whatever the others do. *)

val set_fault_injector :
  (Slc_device.Process.seed -> point -> bool) option -> unit
(** Test hook: when set, {!simulate} raises a synthetic
    [No_convergence] for any (seed, point) the predicate accepts,
    before running (and before counting) a simulation.  Pass [None] to
    clear.  Used to exercise graceful degradation deterministically. *)

val sim_count : unit -> int
(** Global count of transient simulations performed since program start
    (or the last {!reset_sim_count}) — the cost metric every
    speedup claim in the paper is stated in. *)

val reset_sim_count : unit -> unit
(** Zeroes {!sim_count} — only tests and cost-accounting experiments
    should call this. *)

val count_simulation : unit -> unit
(** Adds one to the global simulation counter — for engines (e.g.
    {!Chain}) that invoke the transient solver directly. *)
