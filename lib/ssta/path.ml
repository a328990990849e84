module Arc = Slc_cell.Arc
module Chain = Slc_cell.Chain
module Cells = Slc_cell.Cells
module Equivalent = Slc_cell.Equivalent
module Harness = Slc_cell.Harness

type stage_timing = {
  arc_name : string;
  delay : float;
  out_slew : float;
  load : float;
}

type timing = {
  total_delay : float;
  out_slew : float;
  stages : stage_timing list;
}

(* Load seen by stage i: its wire cap, plus the next stage's switching-
   pin gate cap, or the chain's final load for the last stage. *)
let stage_loads (chain : Chain.t) =
  let rec go = function
    | [] -> []
    | [ (last : Chain.stage) ] -> [ last.Chain.wire_cap +. chain.Chain.final_load ]
    | (s : Chain.stage) :: (next :: _ as rest) ->
      (s.Chain.wire_cap
      +. Equivalent.input_cap chain.Chain.tech next.Chain.cell
           ~pin:next.Chain.pin)
      :: go rest
  in
  go chain.Chain.stages

let propagate_with query (chain : Chain.t) ~sin ~vdd ~in_rises =
  let arcs = Chain.arcs_of chain ~in_rises in
  let loads = stage_loads chain in
  let rec go slew acc = function
    | [] -> List.rev acc
    | ((arc : Arc.t), load) :: rest ->
      let point = { Harness.sin = slew; cload = load; vdd } in
      let delay, out_slew = query arc point in
      let st = { arc_name = Arc.name arc; delay; out_slew; load } in
      go out_slew (st :: acc) rest
  in
  let stages = go sin [] (List.combine arcs loads) in
  let total_delay = List.fold_left (fun acc s -> acc +. s.delay) 0.0 stages in
  let out_slew =
    match List.rev stages with s :: _ -> s.out_slew | [] -> sin
  in
  { total_delay; out_slew; stages }

let propagate (oracle : Oracle.t) chain ~sin ~vdd ~in_rises =
  propagate_with oracle.Oracle.query chain ~sin ~vdd ~in_rises

let statistical ~population ~seeds chain ~sin ~vdd ~in_rises =
  let module Statistical = Slc_core.Statistical in
  (* One population per distinct arc, built lazily. *)
  let pop_of = Oracle.per_arc population in
  Array.map
    (fun seed ->
      let query arc point =
        let pop = pop_of arc in
        ( pop.Statistical.predict_td seed point,
          pop.Statistical.predict_sout seed point )
      in
      (propagate_with query chain ~sin ~vdd ~in_rises).total_delay)
    seeds
