module Mosfet = Slc_device.Mosfet
module Tech = Slc_device.Tech
module Process = Slc_device.Process

type t = { device : Mosfet.params; width_mult : float }

let rec series_depth = function
  | Topology.Dev _ -> 0
  | Topology.Series l ->
    List.length l - 1
    + List.fold_left (fun acc n -> max acc (series_depth n)) 0 l
  | Topology.Parallel l ->
    List.fold_left (fun acc n -> max acc (series_depth n)) 0 l

let of_arc ?(stack_factor = 0.95) (tech : Tech.t) (arc : Arc.t) =
  let cell = arc.Arc.cell in
  let falling = match arc.Arc.out_dir with Arc.Fall -> true | Arc.Rise -> false in
  (* Conduction state at the *end* of the transition: switching input
     high for a falling output, low for a rising one. *)
  let on_input = Arc.input_on arc ~switching_high:falling in
  let network, template, base_mult =
    if falling then (cell.Cells.pull_down, tech.Tech.nmos, cell.Cells.wn_mult)
    else (cell.Cells.pull_up, tech.Tech.pmos, cell.Cells.wp_mult)
  in
  (* A PMOS device conducts when its gate input is low. *)
  let on pin = if falling then on_input pin else not (on_input pin) in
  let w_eq = Topology.equivalent_width_mult network ~on in
  if w_eq <= 0.0 then
    Slc_obs.Slc_error.invalid_input ~site:"Equivalent.of_arc" "arc network does not conduct";
  let derate = stack_factor ** float_of_int (series_depth network) in
  let width_mult = w_eq *. base_mult *. derate in
  { device = Mosfet.scale_width template width_mult; width_mult }

(* of_arc is deterministic in (tech, arc) and called on every window
   sizing, so memoize the default-stack-factor case.  Keys are compared
   structurally (both types are plain data); simulations run
   concurrently under Slc_num.Parallel, hence a [Memo]. *)
let memo : (Tech.t * Arc.t, t) Slc_num.Memo.t = Slc_num.Memo.create ()

let of_arc_cached (tech : Tech.t) (arc : Arc.t) =
  Slc_num.Memo.find_or_build memo (tech, arc) (fun () -> of_arc tech arc)

let ieff t ~vdd = Mosfet.ieff t.device ~vdd

let ieff_with_seed tech seed arc ~vdd =
  let eq = of_arc tech arc in
  (* Only global shifts: the equivalent device is an abstraction, not a
     physical instance, so local mismatch stays in the extraction
     residual. *)
  let global_only = { seed with Slc_device.Process.local_seed = 0; index = -1 } in
  let dev = Process.apply global_only tech ~device_index:0 eq.device in
  Mosfet.ieff dev ~vdd

let input_cap (tech : Tech.t) (cell : Cells.t) ~pin =
  let rec width_of template = function
    | Topology.Dev { pin = p; width_mult } ->
      if String.equal p pin then width_mult else 0.0
    | Topology.Series l | Topology.Parallel l ->
      List.fold_left (fun acc n -> acc +. width_of template n) 0.0 l
  in
  let wn = width_of tech.Tech.nmos cell.Cells.pull_down *. cell.Cells.wn_mult in
  let wp = width_of tech.Tech.pmos cell.Cells.pull_up *. cell.Cells.wp_mult in
  (wn *. Mosfet.cgate tech.Tech.nmos) +. (wp *. Mosfet.cgate tech.Tech.pmos)

(* Pin-capacitance memo: SSTA graph building asks for the same
   (tech, cell, pin) capacitance once per fanout pin of every gate, so
   a 100k-gate netlist over a dozen cell kinds would otherwise re-walk
   the same pull-up/pull-down topologies ~200k times.  Keys are the
   technology and cell names (both unique per definition); values are
   the pure [input_cap] result, so caching never changes bits. *)
let input_cap_memo : (string * string * string, float) Slc_num.Memo.t =
  Slc_num.Memo.create ()

let input_cap_cached (tech : Tech.t) (cell : Cells.t) ~pin =
  Slc_num.Memo.find_or_build input_cap_memo
    (tech.Tech.name, cell.Cells.name, pin)
    (fun () -> input_cap tech cell ~pin)

let parasitic_cap (tech : Tech.t) (arc : Arc.t) =
  let cell = arc.Arc.cell in
  (* Devices whose drain touches the output: the top level of both
     networks.  Approximate with the full network width. *)
  let all_on _ = true in
  let wn =
    Topology.equivalent_width_mult cell.Cells.pull_down ~on:all_on
    *. cell.Cells.wn_mult
  in
  let wp =
    Topology.equivalent_width_mult cell.Cells.pull_up ~on:all_on
    *. cell.Cells.wp_mult
  in
  (wn *. Mosfet.cjunction tech.Tech.nmos)
  +. (wp *. Mosfet.cjunction tech.Tech.pmos)
