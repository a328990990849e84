module Mosfet = Slc_device.Mosfet
module Tech = Slc_device.Tech
module Process = Slc_device.Process
module Slc_error = Slc_obs.Slc_error
module Telemetry = Slc_obs.Telemetry
open Slc_spice

type point = { sin : float; cload : float; vdd : float }

let pp_point ppf p =
  Format.fprintf ppf "(Sin=%.2fps, Cload=%.2ffF, Vdd=%.3fV)" (p.sin *. 1e12)
    (p.cload *. 1e15) p.vdd

let point_of_vec v =
  if Array.length v <> 3 then Slc_obs.Slc_error.invalid_input ~site:"Harness.point_of_vec" "need 3 coords";
  { sin = v.(0); cload = v.(1); vdd = v.(2) }

let vec_of_point p = [| p.sin; p.cload; p.vdd |]

type measurement = {
  td : float;
  sout : float;
  energy : float;
  newton_iters : int;
  time_steps : int;
  retries : int;
  degraded : bool;
  recovery : string list;
}

(* Atomic: simulations may run concurrently under Slc_num.Parallel. *)
let sims = Atomic.make 0

let sim_count () = Atomic.get sims

let reset_sim_count () = Atomic.set sims 0

let count_simulation () =
  Atomic.incr sims;
  Telemetry.incr Telemetry.simulations

(* Fractions of the total gate capacitance assigned to the gate-drain
   (Miller) and gate-source branches. *)
let cgd_frac = 0.3

let cgs_frac = 0.5

let ramp_start = 1e-12

(* Supply-current sense resistor: small enough to leave waveforms
   unchanged (IR drop ~0.1 mV at 100 uA), large enough to read the
   current from the node-voltage difference without precision loss. *)
let r_sense = 1.0

(* Where each capacitor's value comes from, in netlist insertion order:
   a fraction of device [i]'s gate cap, device [i]'s junction cap, or
   the external load.  Recorded when the template netlist is built so
   later calls can recompute values for a new seed/point without
   rebuilding the netlist. *)
type cap_source = Cap_gd of int | Cap_gs of int | Cap_j of int | Cap_load

type recorder = {
  mutable rec_bases : Mosfet.params list; (* reversed *)
  mutable rec_caps : cap_source list;     (* reversed *)
}

let instantiate_impl ?(seed = Process.nominal) ?recorder (tech : Tech.t) net
    (cell : Cells.t) ~gate_node ~out ~vdd_node =
  let cpar_scale = Process.cpar_scale seed in
  let add_device template width_mult ~g ~d ~s ~bulk =
    let base = Mosfet.scale_width template width_mult in
    let index = Netlist.device_count net in
    let dev = Process.apply seed tech ~device_index:index base in
    Netlist.add_mosfet net dev ~g ~d ~s;
    let cgate = Mosfet.cgate dev *. cpar_scale in
    let cj = Mosfet.cjunction dev *. cpar_scale in
    (match recorder with
    | Some r ->
      r.rec_bases <- base :: r.rec_bases;
      (* Mirror Netlist.add_capacitor's skip rule so the recorded slots
         stay aligned with the compiled capacitor order. *)
      let reg src c a b =
        if c > 0.0 && a <> b then r.rec_caps <- src :: r.rec_caps
      in
      reg (Cap_gd index) (cgd_frac *. cgate) g d;
      reg (Cap_gs index) (cgs_frac *. cgate) g s;
      reg (Cap_j index) cj d bulk
    | None -> ());
    Netlist.add_capacitor net (cgd_frac *. cgate) ~a:g ~b:d;
    Netlist.add_capacitor net (cgs_frac *. cgate) ~a:g ~b:s;
    Netlist.add_capacitor net cj ~a:d ~b:bulk
  in
  (* Expand a series-parallel network between the output node and a
     rail.  Series chains walk from the output towards the rail. *)
  let rec expand network template base_mult ~bulk ~top ~bottom =
    match network with
    | Topology.Dev { pin; width_mult } ->
      add_device template (width_mult *. base_mult) ~g:(gate_node pin) ~d:top
        ~s:bottom ~bulk
    | Topology.Parallel subs ->
      List.iter (fun s -> expand s template base_mult ~bulk ~top ~bottom) subs
    | Topology.Series subs ->
      let n = List.length subs in
      let rec walk i from = function
        | [] -> ()
        | [ last ] -> expand last template base_mult ~bulk ~top:from ~bottom
        | sub :: rest ->
          let mid = Netlist.fresh_node net (Printf.sprintf "int%d" i) in
          expand sub template base_mult ~bulk ~top:from ~bottom:mid;
          walk (i + 1) mid rest
      in
      if n = 0 then Slc_obs.Slc_error.invalid_input ~site:"Harness" "empty series group"
      else walk 0 top subs
  in
  Topology.validate cell.Cells.pull_down;
  Topology.validate cell.Cells.pull_up;
  expand cell.Cells.pull_down tech.Tech.nmos cell.Cells.wn_mult
    ~bulk:Netlist.ground ~top:out ~bottom:Netlist.ground;
  expand cell.Cells.pull_up tech.Tech.pmos cell.Cells.wp_mult ~bulk:vdd_node
    ~top:out ~bottom:vdd_node

let instantiate ?seed tech net cell ~gate_node ~out ~vdd_node =
  instantiate_impl ?seed tech net cell ~gate_node ~out ~vdd_node

let build_netlist_impl ?(seed = Process.nominal) ?recorder (tech : Tech.t)
    (arc : Arc.t) point =
  if point.sin <= 0.0 || point.cload < 0.0 || point.vdd <= 0.0 then
    Slc_obs.Slc_error.invalid_input ~site:"Harness.build_netlist" "invalid input condition";
  let cell = arc.Arc.cell in
  let net = Netlist.create () in
  let nvdd = Netlist.fresh_node net "vdd" in
  let nrail = Netlist.fresh_node net "vddrail" in
  let nout = Netlist.fresh_node net "out" in
  let nin = Netlist.fresh_node net "in" in
  Netlist.add_vsource net (Stimulus.dc point.vdd) nvdd;
  Netlist.add_resistor net r_sense ~a:nvdd ~b:nrail;
  let input_rises = Arc.input_rises arc in
  let v_from = if input_rises then 0.0 else point.vdd in
  let v_to = if input_rises then point.vdd else 0.0 in
  Netlist.add_vsource net
    (Stimulus.ramp ~t0:ramp_start ~duration:point.sin ~v_from ~v_to)
    nin;
  (* Side inputs tied to their static rails.  The switching pin starts
     at v_from, so side values come from the pre-transition state; they
     are constant throughout. *)
  let side_node pin =
    let v = List.assoc pin arc.Arc.side_values in
    if v then nvdd else Netlist.ground
  in
  let gate_node pin =
    if String.equal pin arc.Arc.pin then nin else side_node pin
  in
  instantiate_impl ~seed ?recorder tech net cell ~gate_node ~out:nout
    ~vdd_node:nrail;
  (match recorder with
  | Some r when point.cload > 0.0 -> r.rec_caps <- Cap_load :: r.rec_caps
  | _ -> ());
  Netlist.add_capacitor net point.cload ~a:nout ~b:Netlist.ground;
  (net, nin, nout)

let build_netlist ?seed tech arc point = build_netlist_impl ?seed tech arc point

(* Node ids assigned by build_netlist, in order. *)
let node_vdd = 1

let node_rail = 2

(* ------------------------------------------------------------------ *)
(* Compiled-template cache.

   The netlist topology of an arc testbench is a function of
   (tech, arc) only: seeds perturb device parameters and capacitance
   values, points change the load capacitance and the source stimuli,
   but never the circuit structure.  We therefore compile the netlist
   once per (tech, arc) and, per simulate call, restamp only parameter
   values via Transient.respecialize.  Simulation *results* are never
   cached — Harness.sim_count accounting is unchanged. *)

type template = {
  t_compiled : Transient.compiled;
  t_bases : Mosfet.params array; (* pre-variation params; index = device index *)
  t_caps : cap_source array;     (* aligned with compiled capacitor order *)
  t_nin : Netlist.node;
  t_nout : Netlist.node;
  t_record : int array;          (* the only nodes simulate measures *)
  t_eq : Equivalent.t;           (* equivalent inverter, for window sizing *)
  t_cpar : float;
}

(* Reference condition used only to build the template topology; every
   parameter it influences is overwritten per call.  cload must be > 0
   so the load-capacitor slot exists (a per-call value of 0 is then
   stamped as an exact zero, which is numerically identical to omitting
   the capacitor). *)
let template_point = { sin = 1e-12; cload = 1e-15; vdd = 1.0 }

let templates : (Tech.t * Arc.t, template) Slc_num.Memo.t =
  Slc_num.Memo.create ()

let build_template (tech : Tech.t) (arc : Arc.t) =
  let r = { rec_bases = []; rec_caps = [] } in
  let net, nin, nout =
    build_netlist_impl ~seed:Process.nominal ~recorder:r tech arc template_point
  in
  let compiled = Transient.compile net in
  {
    t_compiled = compiled;
    t_bases = Array.of_list (List.rev r.rec_bases);
    t_caps = Array.of_list (List.rev r.rec_caps);
    t_nin = nin;
    t_nout = nout;
    t_record = [| nin; nout; node_vdd; node_rail |];
    t_eq = Equivalent.of_arc_cached tech arc;
    t_cpar = Equivalent.parasitic_cap tech arc;
  }

let template tech arc =
  Slc_num.Memo.find_or_build templates (tech, arc) (fun () ->
      build_template tech arc)

(* Per-domain view of the template cache, plus a per-domain scratch
   workspace per (tech, arc).  Templates are immutable and built once in
   the process-wide table above; each domain then keeps its own
   reference so the hot path never takes a memo lock.  Workspaces are
   mutable solver scratch and must not be shared across domains or
   threads — owning one per (domain, tech, arc), checked out for the
   length of a simulate call, lets the pool's long-lived workers reuse
   them across every call instead of allocating one per call.
   [Transient.respecialize] preserves the system dimensions, so a
   workspace sized from the template's compiled form fits every
   specialization of it. *)
let domain_caches :
    (Tech.t * Arc.t, template * Transient.workspace) Hashtbl.t
    Slc_num.Parallel.Slot.t =
  Slc_num.Parallel.Slot.make (fun () -> Hashtbl.create 8)

let domain_template tbl tech arc =
  let key = (tech, arc) in
  match Hashtbl.find_opt tbl key with
  | Some entry ->
    Telemetry.incr Telemetry.template_hits;
    entry
  | None ->
    Telemetry.incr Telemetry.template_misses;
    let tmpl = template tech arc in
    let entry = (tmpl, Transient.make_workspace tmpl.t_compiled) in
    Hashtbl.add tbl key entry;
    entry

(* Fresh parameter values for one (seed, point): same arithmetic, in the
   same element order, as building the netlist from scratch. *)
let specialize tmpl (tech : Tech.t) (arc : Arc.t) ~seed point =
  let cpar_scale = Process.cpar_scale seed in
  let devices =
    Array.mapi
      (fun i base -> Process.apply seed tech ~device_index:i base)
      tmpl.t_bases
  in
  let caps =
    Array.map
      (function
        | Cap_gd i -> cgd_frac *. (Mosfet.cgate devices.(i) *. cpar_scale)
        | Cap_gs i -> cgs_frac *. (Mosfet.cgate devices.(i) *. cpar_scale)
        | Cap_j i -> Mosfet.cjunction devices.(i) *. cpar_scale
        | Cap_load -> point.cload)
      tmpl.t_caps
  in
  let input_rises = Arc.input_rises arc in
  let v_from = if input_rises then 0.0 else point.vdd in
  let v_to = if input_rises then point.vdd else 0.0 in
  (* Source order matches build_netlist: the supply first, then the
     switching input. *)
  let sources =
    [|
      Stimulus.dc point.vdd;
      Stimulus.ramp ~t0:ramp_start ~duration:point.sin ~v_from ~v_to;
    |]
  in
  Transient.respecialize tmpl.t_compiled ~mosfets:devices ~caps ~sources

let supply_energy res ~vdd =
  (* E = Vdd * integral of (leakage-corrected) supply current. *)
  let w_src = Transient.waveform res node_vdd in
  let w_rail = Transient.waveform res node_rail in
  let times = w_src.Waveform.times in
  let current i =
    (w_src.Waveform.values.(i) -. w_rail.Waveform.values.(i)) /. r_sense
  in
  let i_leak = current 0 in
  let q = ref 0.0 in
  for i = 0 to Array.length times - 2 do
    let dt = times.(i + 1) -. times.(i) in
    q := !q +. (0.5 *. ((current i -. i_leak) +. (current (i + 1) -. i_leak)) *. dt)
  done;
  vdd *. !q

(* Test-only fault injection: when the predicate matches a (seed,
   point), [simulate] raises a synthetic solver failure BEFORE running
   (and before counting a simulation).  Lets the degradation and
   recovery paths be exercised deterministically without constructing a
   genuinely pathological circuit per call site. *)
let fault_injector :
    (Process.seed -> point -> bool) option Atomic.t =
  Atomic.make None

let set_fault_injector f = Atomic.set fault_injector f

let context_of ~seed tech (arc : Arc.t) point =
  {
    Slc_error.arc = Some (Arc.name arc);
    tech = Some tech.Tech.name;
    seed = (if seed == Process.nominal then None else Some seed.Process.index);
    point = Some (point.sin, point.cload, point.vdd);
  }

(* The synthetic failure raised for a (seed, point) the fault injector
   matches. *)
let injected_fault ctx =
  Slc_error.No_convergence
    {
      Slc_error.phase = Slc_error.Transient_step;
      time_reached = 0.0;
      dt = 0.0;
      newton_iters = 0;
      residual = Float.nan;
      recovery = [ "injected-fault" ];
      detail = "injected fault (test hook)";
      context = ctx;
    }

(* Pieces of the measurement flow: the initial capture window, the
   per-attempt solver options, and the waveform measurements made on a
   finished run. *)
let initial_window tmpl point =
  let tau =
    let ieff = Equivalent.ieff tmpl.t_eq ~vdd:point.vdd in
    (point.cload +. tmpl.t_cpar) *. point.vdd /. Float.max 1e-12 ieff
  in
  Float.max (8.0 *. tau) (Float.max (3.0 *. point.sin) 2.0e-11)

let attempt_options point ~window =
  let tstop = ramp_start +. point.sin +. window in
  {
    (Transient.default_options ~tstop) with
    (* Resolve the edge finely: the default tstop/100 cap leaves
       only a handful of samples across a fast transition. *)
    dt_max = tstop /. 300.0;
    breakpoints = Stimulus.breakpoints ~t0:ramp_start ~duration:point.sin;
  }

(* Measure a finished run: None when the output edge was not captured
   or has not settled (the caller retries with a longer window). *)
let measure tmpl (arc : Arc.t) point ~retries res =
  let out_dir =
    match arc.Arc.out_dir with
    | Arc.Fall -> Waveform.Falling
    | Arc.Rise -> Waveform.Rising
  in
  let target =
    match arc.Arc.out_dir with Arc.Fall -> 0.0 | Arc.Rise -> point.vdd
  in
  let win = Transient.waveform res tmpl.t_nin in
  let wout = Transient.waveform res tmpl.t_nout in
  let ok_settled = Waveform.settled wout ~vdd:point.vdd ~target ~tol_frac:0.02 in
  let td = Waveform.measure_delay ~input:win ~output:wout ~vdd:point.vdd ~out_dir in
  let sout = Waveform.measure_slew wout ~vdd:point.vdd out_dir in
  match (td, sout, ok_settled) with
  | Some td, Some sout, true ->
    Some
      {
        td;
        sout;
        energy = supply_energy res ~vdd:point.vdd;
        newton_iters = Transient.newton_iterations_total res;
        time_steps = Transient.steps_taken res;
        retries;
        degraded = Transient.degraded res;
        recovery = Transient.recovery_log res;
      }
  | _ -> None

let retry_budget_exhausted ctx ~retries ~window =
  Slc_error.Simulation_failed
    {
      Slc_error.sf_detail = "output edge not captured within the retry budget";
      sf_retries = retries - 1;
      sf_window = window /. 3.0;
      sf_cause = None;
      sf_context = ctx;
    }

let simulate ?(seed = Process.nominal) tech (arc : Arc.t) point =
  if point.sin <= 0.0 || point.cload < 0.0 || point.vdd <= 0.0 then
    Slc_obs.Slc_error.invalid_input ~site:"Harness.build_netlist" "invalid input condition";
  let ctx = context_of ~seed tech arc point in
  (match Atomic.get fault_injector with
  | Some inject when inject seed point ->
    Telemetry.incr Telemetry.sim_failures;
    raise (injected_fault ctx)
  | _ -> ());
  (* The workspace is used only inside this checkout: server threads
     sharing a domain must never step on each other's solver scratch. *)
  Slc_num.Parallel.Slot.with_ domain_caches @@ fun tbl ->
  let tmpl, workspace = domain_template tbl tech arc in
  let compiled = specialize tmpl tech arc ~seed point in
  let rec attempt retries window =
    if retries > 3 then begin
      Telemetry.incr Telemetry.sim_failures;
      raise (retry_budget_exhausted ctx ~retries ~window)
    end;
    if retries > 0 then Telemetry.incr Telemetry.sim_retries;
    let opts = attempt_options point ~window in
    count_simulation ();
    let res =
      Transient.run_recovered ~workspace ~record:tmpl.t_record opts compiled
    in
    match measure tmpl arc point ~retries res with
    | Some m -> m
    | None -> attempt (retries + 1) (window *. 3.0)
  in
  Telemetry.with_span Telemetry.span_simulate (fun () ->
      Slc_error.with_context ctx (fun () ->
          attempt 0 (initial_window tmpl point)))

(* Batched measurement: one [simulate] per (seed, point) lane, spread
   over the domain pool.  [try_map] fixes the lane-to-slot mapping, so
   results, counts and telemetry are independent of the domain count. *)
let simulate_batch tech arc lanes =
  Slc_num.Parallel.try_map
    (fun (seed, point) -> simulate ~seed tech arc point)
    lanes
