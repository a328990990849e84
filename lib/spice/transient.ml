module Mosfet = Slc_device.Mosfet
module Mat = Slc_num.Mat
module Linalg = Slc_num.Linalg
module Slc_error = Slc_obs.Slc_error
module Telemetry = Slc_obs.Telemetry

type integrator = Backward_euler | Trapezoidal

type options = {
  integrator : integrator;
  tstop : float;
  dt_init : float;
  dt_min : float;
  dt_max : float;
  abstol : float;
  dxtol : float;
  max_newton : int;
  gmin : float;
  breakpoints : float list;
}

let default_options ~tstop =
  if tstop <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Transient.default_options" "tstop <= 0";
  {
    integrator = Trapezoidal;
    tstop;
    dt_init = tstop /. 400.0;
    dt_min = tstop *. 1e-7;
    dt_max = tstop /. 100.0;
    abstol = 1e-12;
    dxtol = 1e-7;
    max_newton = 40;
    gmin = 1e-12;
    breakpoints = [];
  }

(* Compiled view of the netlist for fast stamping.  The topology arrays
   (node indices) are immutable and may be shared between many compiled
   instances; the parameter arrays (device params, capacitances, source
   stimuli) are the per-instance values.  {!respecialize} swaps the
   parameter arrays while reusing the topology, which is what lets
   callers cache the compiled structure per circuit shape and restamp
   only the values that change between runs. *)
type compiled = {
  n_nodes : int;
  free_index : int array; (* node id -> solver index, or -1 if pinned *)
  free_nodes : int array; (* solver index -> node id *)
  mos_params : Mosfet.params array;
  mos_g : int array;
  mos_d : int array;
  mos_s : int array;
  cap_c : float array;
  cap_a : int array;
  cap_b : int array;
  res_r : float array;
  res_a : int array;
  res_b : int array;
  src_node : int array;
  src_stim : Stimulus.t array;
}

let compile net =
  Netlist.validate net;
  let n_nodes = Netlist.node_count net in
  let free_index = Array.make n_nodes (-1) in
  let free = ref [] in
  for n = n_nodes - 1 downto 1 do
    if not (Netlist.pinned net n) then free := n :: !free
  done;
  let free_nodes = Array.of_list !free in
  Array.iteri (fun i n -> free_index.(n) <- i) free_nodes;
  let mosfets = ref [] and caps = ref [] and resistors = ref [] in
  List.iter
    (fun e ->
      match e with
      | Netlist.Mosfet { params; g; d; s } ->
        mosfets := (params, g, d, s) :: !mosfets
      | Netlist.Capacitor { c; a; b } -> caps := (c, a, b) :: !caps
      | Netlist.Resistor { r; a; b } -> resistors := (r, a, b) :: !resistors)
    (Netlist.elements net);
  let mosfets = Array.of_list (List.rev !mosfets) in
  let caps = Array.of_list (List.rev !caps) in
  let resistors = Array.of_list (List.rev !resistors) in
  let srcs = Array.of_list (Netlist.sources net) in
  {
    n_nodes;
    free_index;
    free_nodes;
    mos_params = Array.map (fun (p, _, _, _) -> p) mosfets;
    mos_g = Array.map (fun (_, g, _, _) -> g) mosfets;
    mos_d = Array.map (fun (_, _, d, _) -> d) mosfets;
    mos_s = Array.map (fun (_, _, _, s) -> s) mosfets;
    cap_c = Array.map (fun (c, _, _) -> c) caps;
    cap_a = Array.map (fun (_, a, _) -> a) caps;
    cap_b = Array.map (fun (_, _, b) -> b) caps;
    res_r = Array.map (fun (r, _, _) -> r) resistors;
    res_a = Array.map (fun (_, a, _) -> a) resistors;
    res_b = Array.map (fun (_, _, b) -> b) resistors;
    src_node = Array.map fst srcs;
    src_stim = Array.map snd srcs;
  }

let node_count c = c.n_nodes

let respecialize c ~mosfets ~caps ~sources =
  if Array.length mosfets <> Array.length c.mos_params then
    Slc_obs.Slc_error.invalid_input ~site:"Transient.respecialize" "mosfet count mismatch";
  if Array.length caps <> Array.length c.cap_c then
    Slc_obs.Slc_error.invalid_input ~site:"Transient.respecialize" "capacitor count mismatch";
  if Array.length sources <> Array.length c.src_stim then
    Slc_obs.Slc_error.invalid_input ~site:"Transient.respecialize" "source count mismatch";
  { c with mos_params = mosfets; cap_c = caps; src_stim = sources }

let apply_sources c v t =
  for i = 0 to Array.length c.src_node - 1 do
    v.(c.src_node.(i)) <- c.src_stim.(i) t
  done

(* Scaled sources for DC source stepping: pinned nodes are driven at
   [alpha] times their stimulus value, walking alpha from ~0 (where the
   zero solution is exact) to 1 by continuation. *)
let apply_sources_scaled c v t ~alpha =
  for i = 0 to Array.length c.src_node - 1 do
    v.(c.src_node.(i)) <- alpha *. c.src_stim.(i) t
  done

let source_vmax c ~at =
  let m = ref 0.0 in
  for i = 0 to Array.length c.src_stim - 1 do
    m := Float.max !m (c.src_stim.(i) at)
  done;
  !m

(* Per-run scratch buffers, allocated once and reused by every Newton
   iteration: dense Jacobian, residual, negated-RHS/update vector,
   pivot indices, previous node voltages and per-capacitor branch
   currents.  Nothing in the Newton loop allocates. *)
type workspace = {
  w_free : int;    (* number of free (solved) nodes *)
  w_nodes : int;   (* total node count *)
  jac : Mat.t;     (* w_free x w_free *)
  resid : float array;
  rhs : float array;
  perm : int array;
  v_prev : float array;
  mutable icap : float array;
  mutable icap_next : float array;
  ebuf : Mosfet.eval_buf; (* device-evaluation scratch *)
  (* Diagnostics of the most recent Newton attempt, for the structured
     No_convergence payload: residual inf-norm and iteration count at
     the last iterate (success or failure). *)
  mutable last_fnorm : float;
  mutable last_iters : int;
}

let make_workspace c =
  let n = Array.length c.free_nodes in
  let ncaps = Array.length c.cap_c in
  {
    w_free = n;
    w_nodes = c.n_nodes;
    jac = Mat.create n n;
    resid = Array.make n 0.0;
    rhs = Array.make n 0.0;
    perm = Array.make n 0;
    v_prev = Array.make c.n_nodes 0.0;
    icap = Array.make ncaps 0.0;
    icap_next = Array.make ncaps 0.0;
    ebuf = Mosfet.make_eval_buf ();
    last_fnorm = 0.0;
    last_iters = 0;
  }

let check_workspace ws c =
  if
    ws.w_free <> Array.length c.free_nodes
    || ws.w_nodes <> c.n_nodes
    || Array.length ws.icap <> Array.length c.cap_c
  then Slc_obs.Slc_error.invalid_input ~site:"Transient" "workspace does not match the compiled circuit"

(* Stamp static (resistive + device + gmin) contributions into residual f
   and the raw row-major Jacobian storage jd (stride n).  v is the full
   node-voltage array.

   The residual/Jacobian accumulations are written out longhand (rather
   than through add_f/add_j helpers) so every float stays in a register:
   a float passed to a non-inlined local function is boxed, and at
   ~75 accumulations per Newton iteration that boxing dominated the
   loop's allocation profile. *)
let[@inline] [@slc.hot] add_f f fi nd x =
  let i = Array.unsafe_get fi nd in
  if i >= 0 then Array.unsafe_set f i (Array.unsafe_get f i +. x)

let[@inline] [@slc.hot] add_j jd n fi nd md x =
  let i = Array.unsafe_get fi nd and j = Array.unsafe_get fi md in
  if i >= 0 && j >= 0 then begin
    let k = (i * n) + j in
    Array.unsafe_set jd k (Array.unsafe_get jd k +. x)
  end

let[@slc.hot] stamp_static c ~gmin ~ebuf v f jd n =
  let fi = c.free_index in
  for k = 0 to Array.length c.res_r - 1 do
    let a = c.res_a.(k) and b = c.res_b.(k) in
    let g = 1.0 /. c.res_r.(k) in
    let i = g *. (v.(a) -. v.(b)) in
    add_f f fi a i;
    add_f f fi b (-.i);
    add_j jd n fi a a g;
    add_j jd n fi a b (-.g);
    add_j jd n fi b b g;
    add_j jd n fi b a (-.g)
  done;
  for k = 0 to Array.length c.mos_params - 1 do
    let g = c.mos_g.(k) and d = c.mos_d.(k) and s = c.mos_s.(k) in
    Mosfet.eval_into c.mos_params.(k) ~vg:v.(g) ~vd:v.(d) ~vs:v.(s) ebuf;
    let id = ebuf.Mosfet.b_id
    and d_vg = ebuf.Mosfet.b_vg
    and d_vd = ebuf.Mosfet.b_vd
    and d_vs = ebuf.Mosfet.b_vs in
    (* id enters the drain terminal: it leaves node d and enters
       node s. *)
    add_f f fi d id;
    add_f f fi s (-.id);
    add_j jd n fi d g d_vg;
    add_j jd n fi d d d_vd;
    add_j jd n fi d s d_vs;
    add_j jd n fi s g (-.d_vg);
    add_j jd n fi s d (-.d_vd);
    add_j jd n fi s s (-.d_vs)
  done;
  (* gmin keeps isolated or floating nodes well-conditioned. *)
  for i = 0 to Array.length c.free_nodes - 1 do
    let nd = c.free_nodes.(i) in
    f.(i) <- f.(i) +. (gmin *. v.(nd));
    let k = (i * n) + i in
    jd.(k) <- jd.(k) +. gmin
  done

(* Capacitor current for the chosen integration method.  For
   trapezoidal integration the companion model needs the capacitor
   current at the previous accepted step (icap_prev). *)
let[@inline] [@slc.hot] cap_current ~method_ ~dt cap dv dv_prev i_prev =
  match method_ with
  | Backward_euler -> cap /. dt *. (dv -. dv_prev)
  | Trapezoidal -> (2.0 *. cap /. dt *. (dv -. dv_prev)) -. i_prev

let[@inline] [@slc.hot] cap_conductance ~method_ ~dt cap =
  match method_ with
  | Backward_euler -> cap /. dt
  | Trapezoidal -> 2.0 *. cap /. dt

let[@slc.hot] stamp_caps c ~method_ ~dt ~icap_prev v v_prev f jd n =
  let fi = c.free_index in
  for idx = 0 to Array.length c.cap_c - 1 do
    let cap = c.cap_c.(idx) and a = c.cap_a.(idx) and b = c.cap_b.(idx) in
    let geq = cap_conductance ~method_ ~dt cap in
    let i =
      cap_current ~method_ ~dt cap
        (v.(a) -. v.(b))
        (v_prev.(a) -. v_prev.(b))
        icap_prev.(idx)
    in
    add_f f fi a i;
    add_f f fi b (-.i);
    add_j jd n fi a a geq;
    add_j jd n fi a b (-.geq);
    add_j jd n fi b b geq;
    add_j jd n fi b a (-.geq)
  done

(* Damped Newton on the free nodes.  [with_caps] selects transient vs DC
   residuals.  Returns the number of iterations or None on failure;
   v is updated in place on success (and left modified on failure).
   All scratch storage comes from the workspace: the loop body performs
   no heap allocation. *)
let[@slc.hot] newton ws c opts ~gmin ~caps ~v_prev v =
  let n = ws.w_free in
  let f = ws.resid in
  let jd = Mat.data ws.jac in
  (* Iteration state: 0 = still iterating, -1 = failed (iteration cap or
     singular Jacobian), k > 0 = converged at iteration k.  A flat loop
     rather than a local [rec iterate] closure keeps the body free of
     heap allocation. *)
  let outcome = ref 0 in
  let k = ref 1 in
  while !outcome = 0 do
    if !k > opts.max_newton then outcome := -1
    else begin
      Array.fill f 0 n 0.0;
      Array.fill jd 0 (n * n) 0.0;
      stamp_static c ~gmin ~ebuf:ws.ebuf v f jd n;
      (match caps with
      | Some (method_, dt, icap_prev) ->
        stamp_caps c ~method_ ~dt ~icap_prev v v_prev f jd n
      | None -> ());
      let fnorm = ref 0.0 in
      for i = 0 to n - 1 do
        fnorm := Float.max !fnorm (Float.abs f.(i))
      done;
      let fnorm = !fnorm in
      ws.last_fnorm <- fnorm;
      ws.last_iters <- !k;
      let factored =
        match Linalg.lu_factor_in_place ws.jac ws.perm with
        | (_ : float) -> true
        | exception Linalg.Singular _ -> false
      in
      if not factored then outcome := -1
      else begin
        (* Negate the residual in place; the solve reads it through the
           pivot permutation and writes the update into rhs. *)
        for i = 0 to n - 1 do
          f.(i) <- -.f.(i)
        done;
        Linalg.lu_solve_in_place ws.jac ws.perm ~b:f ~x:ws.rhs;
        let dx = ws.rhs in
        (* Voltage-step damping: cap updates at 0.3 V per iteration. *)
        let dmax = ref 0.0 in
        for i = 0 to n - 1 do
          dmax := Float.max !dmax (Float.abs dx.(i))
        done;
        let dmax = !dmax in
        let scale = if dmax > 0.3 then 0.3 /. dmax else 1.0 in
        for i = 0 to n - 1 do
          let node = Array.unsafe_get c.free_nodes i in
          v.(node) <- v.(node) +. (scale *. dx.(i))
        done;
        if fnorm < opts.abstol && dmax *. scale < opts.dxtol then
          outcome := !k
        else incr k
      end
    end
  done;
  if !outcome < 0 then None else Some !outcome

let dc_solve ws c opts ~at v =
  apply_sources c v at;
  Array.blit v 0 ws.v_prev 0 c.n_nodes;
  let v_prev = ws.v_prev in
  (* Direct attempt, then gmin stepping from strongly damped to the
     target gmin, then source stepping (ramping every source from zero
     to its full value by continuation). *)
  match newton ws c opts ~gmin:opts.gmin ~caps:None ~v_prev v with
  | Some _ -> ()
  | None ->
    let ok = ref false in
    let attempt gmin_start =
      if not !ok then begin
        (* Reset the guess to mid-rail before each continuation run. *)
        let vmax = source_vmax c ~at in
        Array.iter (fun nfree -> v.(nfree) <- 0.5 *. vmax) c.free_nodes;
        apply_sources c v at;
        let g = ref gmin_start in
        let all_ok = ref true in
        while !all_ok && !g >= opts.gmin do
          (match newton ws c opts ~gmin:!g ~caps:None ~v_prev v with
          | Some _ -> ()
          | None -> all_ok := false);
          g := !g /. 100.0
        done;
        if !all_ok then ok := true
      end
    in
    let attempt_source_stepping () =
      if not !ok then begin
        Telemetry.incr Telemetry.dc_source_fallbacks;
        (* At alpha = 0 every source is grounded and (with gmin) the
           zero vector solves the system exactly; walk alpha up to 1,
           starting each solve from the previous alpha's solution. *)
        Array.iter (fun nfree -> v.(nfree) <- 0.0) c.free_nodes;
        let steps = 10 in
        let all_ok = ref true in
        for s = 1 to steps do
          if !all_ok then begin
            let alpha = float_of_int s /. float_of_int steps in
            apply_sources_scaled c v at ~alpha;
            match newton ws c opts ~gmin:opts.gmin ~caps:None ~v_prev v with
            | Some _ -> ()
            | None -> all_ok := false
          end
        done;
        if !all_ok then ok := true
      end
    in
    Telemetry.incr Telemetry.dc_gmin_fallbacks;
    attempt 1e-3;
    attempt 1e-1;
    attempt_source_stepping ();
    if not !ok then
      Slc_error.raise_no_convergence ~phase:Slc_error.Dc_operating_point
        ~time_reached:at ~dt:0.0 ~newton_iters:ws.last_iters
        ~residual:ws.last_fnorm "dc_solve: gmin and source stepping failed"

let dc_operating_point net ~at =
  let c = compile net in
  let ws = make_workspace c in
  let v = Array.make c.n_nodes 0.0 in
  let opts = default_options ~tstop:1.0 in
  let vmax = source_vmax c ~at in
  Array.iter (fun n -> v.(n) <- 0.5 *. vmax) c.free_nodes;
  dc_solve ws c opts ~at v;
  v

let dc_sweep_compiled ?workspace c ~node ~values =
  if node <= 0 || node >= c.n_nodes || c.free_index.(node) >= 0 then
    Slc_obs.Slc_error.invalid_input ~site:"Transient.dc_sweep" "node must be driven by a source";
  let src_i =
    let found = ref (-1) in
    Array.iteri
      (fun i n -> if n = node && !found < 0 then found := i)
      c.src_node;
    if !found < 0 then
      Slc_obs.Slc_error.invalid_input ~site:"Transient.dc_sweep" "node must be driven by a source";
    !found
  in
  let ws =
    match workspace with
    | Some ws ->
      check_workspace ws c;
      ws
    | None -> make_workspace c
  in
  let opts = default_options ~tstop:1.0 in
  let v = Array.make c.n_nodes 0.0 in
  let vmax = source_vmax c ~at:0.0 in
  Array.iter (fun n -> v.(n) <- 0.5 *. vmax) c.free_nodes;
  apply_sources c v 0.0;
  (* The sweep swaps the swept source's stimulus for each DC value so
     that EVERY solve — including the gmin/source-stepping fallbacks,
     which re-apply sources from scratch — sees the sweep value (the
     old code let the fallback solve against the un-swept stimulus and
     then polished at the right value, which could both fail spuriously
     and, on failure, leave the mutated stimulus behind).  The original
     stimulus is restored on all exits, so a compiled circuit cached by
     a higher layer is never left corrupted for its next user. *)
  let saved_stim = c.src_stim.(src_i) in
  Fun.protect
    ~finally:(fun () -> c.src_stim.(src_i) <- saved_stim)
    (fun () ->
      Array.map
        (fun value ->
          c.src_stim.(src_i) <- Stimulus.dc value;
          apply_sources c v 0.0;
          (* Continuation from the previous point's solution; full
             solve from scratch (mid-rail reset, gmin and source
             stepping) when that fails. *)
          (match newton ws c opts ~gmin:opts.gmin ~caps:None ~v_prev:ws.v_prev v with
          | Some _ -> ()
          | None -> (
            Array.iter (fun n -> v.(n) <- 0.5 *. vmax) c.free_nodes;
            try dc_solve ws c opts ~at:0.0 v
            with Slc_error.No_convergence d ->
              raise
                (Slc_error.No_convergence
                   {
                     d with
                     Slc_error.phase = Slc_error.Dc_sweep;
                     detail =
                       Printf.sprintf "dc_sweep at %.6g V: %s" value
                         d.Slc_error.detail;
                   })));
          Array.copy v)
        values)

let dc_sweep net ~node ~values =
  dc_sweep_compiled (compile net) ~node ~values

type result = {
  r_times : float array;
  r_volts : float array array;
      (* per step: the full node vector, or just the recorded columns *)
  r_record : int array option; (* node ids per column; None = all nodes *)
  r_newton : int;
  r_steps : int;
  r_degraded : bool;        (* a recovery rung with relaxed numerics ran *)
  r_recovery : string list; (* escalation rungs attempted, in order *)
}

let run_compiled ?workspace ?record opts c =
  if opts.tstop <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Transient.run" "tstop <= 0";
  let ws =
    match workspace with
    | Some ws ->
      check_workspace ws c;
      ws
    | None -> make_workspace c
  in
  (match record with
  | Some nodes ->
    Array.iter
      (fun n ->
        if n < 0 || n >= c.n_nodes then
          Slc_obs.Slc_error.invalid_input ~site:"Transient.run" "recorded node out of range")
      nodes
  | None -> ());
  let snapshot v =
    match record with
    | None -> Array.copy v
    | Some nodes -> Array.map (fun n -> v.(n)) nodes
  in
  let v = Array.make c.n_nodes 0.0 in
  let vmax = source_vmax c ~at:0.0 in
  Array.iter (fun n -> v.(n) <- 0.5 *. vmax) c.free_nodes;
  dc_solve ws c opts ~at:0.0 v;
  let break_times =
    List.sort_uniq compare
      (List.filter (fun t -> t > 0.0 && t < opts.tstop) opts.breakpoints)
  in
  let times = ref [ 0.0 ] in
  let volts = ref [ snapshot v ] in
  let newton_total = ref 0 in
  let steps = ref 0 in
  (* Per-capacitor branch current at the last accepted time point
     (zero at the DC operating point). *)
  Array.fill ws.icap 0 (Array.length ws.icap) 0.0;
  let t = ref 0.0 in
  let dt = ref opts.dt_init in
  (* Tail coarsening.  [dt_max] is sized to resolve switching edges, but
     digital transients spend most of their grid points in the smooth
     settling tail where nothing moves.  While consecutive accepted
     steps change every free node by well under 0.1% of the rail, the
     cap is relaxed geometrically (bounded); the moment activity
     returns the cap snaps back, and a relaxed-cap step that lands on
     renewed activity is rejected and redone at normal resolution so no
     un-breakpointed event is ever smeared. *)
  let smooth_tol = 1e-3 *. Float.max vmax 1e-3 in
  let dt_cap = ref opts.dt_max in
  let cap_limit = 16.0 *. opts.dt_max in
  let pending_breaks = ref break_times in
  let v_prev = ws.v_prev in
  while !t < opts.tstop -. (1e-9 *. opts.tstop) do
    (* Clip the step to the next breakpoint or tstop. *)
    let next_limit =
      match !pending_breaks with
      | b :: _ when b > !t +. (1e-12 *. opts.tstop) -> Float.min b opts.tstop
      | _ -> opts.tstop
    in
    let dt_eff = Float.min !dt (next_limit -. !t) in
    let t_new = !t +. dt_eff in
    Array.blit v 0 v_prev 0 c.n_nodes;
    apply_sources c v t_new;
    (* Trapezoidal needs a valid previous cap current; take the very
       first step with backward Euler. *)
    let method_ =
      match opts.integrator with
      | Backward_euler -> Backward_euler
      | Trapezoidal -> if !steps = 0 then Backward_euler else Trapezoidal
    in
    (match
       newton ws c opts ~gmin:opts.gmin
         ~caps:(Some (method_, dt_eff, ws.icap))
         ~v_prev v
     with
    | Some iters ->
      let dvmax = ref 0.0 in
      for i = 0 to Array.length c.free_nodes - 1 do
        let nd = Array.unsafe_get c.free_nodes i in
        dvmax := Float.max !dvmax (Float.abs (v.(nd) -. v_prev.(nd)))
      done;
      let dvmax = !dvmax in
      if dt_eff > opts.dt_max && dvmax > 8.0 *. smooth_tol then begin
        (* A relaxed-cap step jumped into renewed activity: discard it
           and redo from the last accepted point at edge resolution. *)
        Telemetry.incr Telemetry.newton_rejects;
        Array.blit v_prev 0 v 0 c.n_nodes;
        dt := opts.dt_max;
        dt_cap := opts.dt_max
      end
      else begin
        (* Commit the capacitor-current state for the accepted step,
           writing into the spare buffer and swapping. *)
        let icap_prev = ws.icap and icap_new = ws.icap_next in
        for idx = 0 to Array.length c.cap_c - 1 do
          let a = c.cap_a.(idx) and b = c.cap_b.(idx) in
          icap_new.(idx) <-
            cap_current ~method_ ~dt:dt_eff c.cap_c.(idx)
              (v.(a) -. v.(b))
              (v_prev.(a) -. v_prev.(b))
              icap_prev.(idx)
        done;
        ws.icap <- icap_new;
        ws.icap_next <- icap_prev;
        newton_total := !newton_total + iters;
        incr steps;
        t := t_new;
        times := t_new :: !times;
        volts := snapshot v :: !volts;
        (match !pending_breaks with
        | b :: rest when t_new >= b -. (1e-12 *. opts.tstop) ->
          pending_breaks := rest
        | _ -> ());
        if dvmax < smooth_tol then
          dt_cap := Float.min cap_limit (!dt_cap *. 1.5)
        else begin
          dt_cap := opts.dt_max;
          if !dt > opts.dt_max then dt := opts.dt_max
        end;
        (* Grow the step after quick convergence. *)
        if iters <= 5 then dt := Float.min !dt_cap (!dt *. 1.4)
        else if iters > 15 then dt := Float.max opts.dt_min (!dt *. 0.7)
      end
    | None ->
      (* Reject: restore state and halve the step. *)
      Telemetry.incr Telemetry.newton_rejects;
      Array.blit v_prev 0 v 0 c.n_nodes;
      dt := dt_eff /. 2.0;
      if !dt < opts.dt_min then
        Slc_error.raise_no_convergence ~phase:Slc_error.Transient_step
          ~time_reached:!t ~dt:!dt ~newton_iters:ws.last_iters
          ~residual:ws.last_fnorm "run: step size underflow")
  done;
  Telemetry.add Telemetry.newton_iters !newton_total;
  Telemetry.add Telemetry.transient_steps !steps;
  {
    r_times = Array.of_list (List.rev !times);
    r_volts = Array.of_list (List.rev !volts);
    r_record = record;
    r_newton = !newton_total;
    r_steps = !steps;
    r_degraded = false;
    r_recovery = [];
  }

let run ?record opts net = run_compiled ?record opts (compile net)

(* ------------------------------------------------------------------ *)
(* Convergence-recovery escalation ladder.

   Each rung re-runs the whole transient with progressively more
   forgiving options.  The first two rungs change only HOW the solver
   walks to the solution (smaller initial step; the DC-level gmin and
   source stepping always run inside dc_solve), so a success there is a
   full-quality result.  The last two rungs change the numerics
   themselves (boosted gmin, relaxed tolerances) and therefore mark the
   result degraded: usable, but to be surfaced to the caller. *)

let recovery_rungs :
    (string * bool * (options -> options)) list =
  [
    ( "tight-step",
      false,
      fun o -> { o with dt_init = Float.max o.dt_min (o.dt_init /. 16.0) } );
    ( "gmin-boost",
      true,
      fun o ->
        {
          o with
          gmin = o.gmin *. 1e3;
          dt_init = Float.max o.dt_min (o.dt_init /. 4.0);
        } );
    ( "relaxed-tol",
      true,
      fun o ->
        {
          o with
          abstol = Float.max (o.abstol *. 1e4) 1e-9;
          dxtol = Float.max (o.dxtol *. 1e4) 1e-5;
        } );
  ]

let run_recovered ?workspace ?record ?(max_recovery = 3) opts c =
  match run_compiled ?workspace ?record opts c with
  | r -> r
  | exception Slc_error.No_convergence d0 ->
    let rungs = List.filteri (fun i _ -> i < max_recovery) recovery_rungs in
    let rec escalate attempted = function
      | [] ->
        (* Every rung failed: re-raise the ORIGINAL failure's
           diagnostics, annotated with the rungs that were tried. *)
        raise
          (Slc_error.No_convergence
             { d0 with Slc_error.recovery = List.rev attempted })
      | (name, degrades, tweak) :: rest -> (
        Telemetry.incr Telemetry.recovery_attempts;
        match run_compiled ?workspace ?record (tweak opts) c with
        | r ->
          Telemetry.incr Telemetry.recovery_rescues;
          if degrades then Telemetry.incr Telemetry.degraded_runs;
          {
            r with
            r_degraded = degrades;
            r_recovery = List.rev (name :: attempted);
          }
        | exception Slc_error.No_convergence _ ->
          escalate (name :: attempted) rest)
    in
    escalate [] rungs

let times r = r.r_times

let waveform r node =
  if Array.length r.r_volts = 0 then Slc_obs.Slc_error.invalid_input ~site:"Transient.waveform" "empty";
  let column =
    match r.r_record with
    | None ->
      if node < 0 || node >= Array.length r.r_volts.(0) then
        Slc_obs.Slc_error.invalid_input ~site:"Transient.waveform" "unknown node";
      node
    | Some nodes -> (
      let found = ref (-1) in
      Array.iteri (fun i n -> if n = node && !found < 0 then found := i) nodes;
      match !found with
      | -1 -> Slc_obs.Slc_error.invalid_input ~site:"Transient.waveform" "node was not recorded"
      | i -> i)
  in
  let values = Array.map (fun v -> v.(column)) r.r_volts in
  Waveform.make ~times:r.r_times ~values

let newton_iterations_total r = r.r_newton

let steps_taken r = r.r_steps

let degraded r = r.r_degraded

let recovery_log r = r.r_recovery
