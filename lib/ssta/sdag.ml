module Arc = Slc_cell.Arc
module Cells = Slc_cell.Cells
module Equivalent = Slc_cell.Equivalent
module Harness = Slc_cell.Harness
module Tech = Slc_device.Tech
module Parallel = Slc_num.Parallel

type net = int

type gate_inst = {
  cell : Cells.t;
  pins : (string * net) list;
  out : net;
}

(* Builder: growable arrays instead of reversed lists, so net-name
   lookup is O(1) and nothing is re-materialized per query.  Net
   capacitance is accumulated incrementally as gates are added — each
   new fanout pin adds its gate cap to its driver net, in exactly the
   construction-order summation the historical per-query rescan
   performed, so totals are bitwise identical. *)
type t = {
  tech : Tech.t;
  vdd : float;
  mutable names : string array; (* per net; n_nets entries live *)
  mutable origins : int array; (* per net: -1 = input, else gate index *)
  mutable caps : float array; (* per net: summed fanout pin gate caps *)
  mutable n_nets : int;
  mutable gates : gate_inst array; (* n_gates entries live *)
  mutable n_gates : int;
  loads : (net, float) Hashtbl.t;
}

let dummy_gate = { cell = Cells.inv; pins = []; out = -1 }

let create tech ~vdd =
  if vdd <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Sdag.create" "vdd must be > 0";
  {
    tech;
    vdd;
    names = Array.make 16 "";
    origins = Array.make 16 (-1);
    caps = Array.make 16 0.0;
    n_nets = 0;
    gates = Array.make 16 dummy_gate;
    n_gates = 0;
    loads = Hashtbl.create 8;
  }

let grow_net t =
  if t.n_nets = Array.length t.names then begin
    let cap = 2 * Array.length t.names in
    let names = Array.make cap "" in
    Array.blit t.names 0 names 0 t.n_nets;
    t.names <- names;
    let origins = Array.make cap (-1) in
    Array.blit t.origins 0 origins 0 t.n_nets;
    t.origins <- origins;
    let caps = Array.make cap 0.0 in
    Array.blit t.caps 0 caps 0 t.n_nets;
    t.caps <- caps
  end

let fresh_net t name origin =
  grow_net t;
  let id = t.n_nets in
  t.names.(id) <- name;
  t.origins.(id) <- origin;
  t.caps.(id) <- 0.0;
  t.n_nets <- t.n_nets + 1;
  id

let input t name = fresh_net t name (-1)

let check_net t n =
  if n < 0 || n >= t.n_nets then Slc_obs.Slc_error.invalid_input ~site:"Sdag" "unknown net"

let gate t cell ~pins ?(wire_cap = 0.0) name =
  let expected = List.sort compare cell.Cells.inputs in
  let given = List.sort compare (List.map fst pins) in
  if expected <> given then
    Slc_obs.Slc_error.invalid_input ~site:"Sdag.gate"
      (Printf.sprintf "%s needs pins {%s}, got {%s}" cell.Cells.name
         (String.concat "," expected)
         (String.concat "," given));
  List.iter (fun (_, n) -> check_net t n) pins;
  let idx = t.n_gates in
  let out = fresh_net t name idx in
  if t.n_gates = Array.length t.gates then begin
    let gates = Array.make (2 * Array.length t.gates) dummy_gate in
    Array.blit t.gates 0 gates 0 t.n_gates;
    t.gates <- gates
  end;
  t.gates.(idx) <- { cell; pins; out };
  t.n_gates <- t.n_gates + 1;
  (* Accumulate fanout pin caps onto the driver nets, in pin-list order
     — the same order (and therefore the same floating-point sum) as
     the historical whole-graph rescan. *)
  List.iter
    (fun (pin, n) ->
      t.caps.(n) <- t.caps.(n) +. Equivalent.input_cap_cached t.tech cell ~pin)
    pins;
  if wire_cap > 0.0 then Hashtbl.replace t.loads out wire_cap;
  out

let set_load t net load =
  check_net t net;
  if load < 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Sdag.set_load" "negative load";
  Hashtbl.replace t.loads net
    (load +. Option.value ~default:0.0 (Hashtbl.find_opt t.loads net))

let net_name t n =
  check_net t n;
  t.names.(n)

(* Total capacitance on a net: explicit loads plus the accumulated gate
   caps of all fanout pins. *)
let net_cap t net =
  let explicit = Option.value ~default:0.0 (Hashtbl.find_opt t.loads net) in
  explicit +. t.caps.(net)

type edge_arrival = { at : float; slew : float }

type arrival = { rise : edge_arrival option; fall : edge_arrival option }

let none = { rise = None; fall = None }

let at_edge a ~rises = if rises then a.rise else a.fall

let input_edge ~at ~slew ~rises =
  let e = Some { at; slew } in
  if rises then { rise = e; fall = None } else { none with fall = e }

let later a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> if x.at >= y.at then Some x else Some y

(* ------------------------------------------------------------------ *)
(* Compiled graph: an immutable, int-indexed snapshot of the DAG built
   once per analysis batch.  Pins are arrays, timing-arc candidates are
   resolved up front (one [Arc.find] per distinct (cell, pin, edge)
   instead of one per gate evaluation), net capacitance is frozen per
   gate output, and gates are grouped into ASAP levels: every gate in a
   level depends only on nets produced by strictly earlier levels, so a
   level's gates can be evaluated in parallel. *)

type cgate = {
  c_cell : Cells.t;
  c_pins : (string * net) array;
  c_rise : Arc.t option array; (* per pin: arc producing a rising output *)
  c_fall : Arc.t option array; (* per pin: arc producing a falling output *)
  c_out : net;
  c_load : float; (* total capacitance on [c_out] *)
}

type compiled = {
  k_vdd : float;
  k_names : string array;
  k_origins : int array; (* -1 = primary input, else gate index *)
  k_gates : cgate array;
  k_levels : int array array; (* gate indices grouped by ASAP level *)
}

let compile t =
  let n_nets = t.n_nets and n_gates = t.n_gates in
  let names = Array.sub t.names 0 n_nets in
  let origins = Array.sub t.origins 0 n_nets in
  (* Arc resolution memo: a netlist instantiates few distinct cells, so
     resolve each (cell, pin, direction) once. *)
  let arcs : (string * string * Arc.direction, Arc.t option) Hashtbl.t =
    Hashtbl.create 16
  in
  let resolve (cell : Cells.t) pin out_dir =
    let key = (cell.Cells.name, pin, out_dir) in
    match Hashtbl.find_opt arcs key with
    | Some r -> r
    | None ->
      let r =
        match Arc.find cell ~pin ~out_dir with
        | exception Not_found -> None
        | arc -> Some arc
      in
      Hashtbl.add arcs key r;
      r
  in
  let gates =
    Array.init n_gates (fun gi ->
        let g = t.gates.(gi) in
        let pins = Array.of_list g.pins in
        {
          c_cell = g.cell;
          c_pins = pins;
          c_rise = Array.map (fun (pin, _) -> resolve g.cell pin Arc.Rise) pins;
          c_fall = Array.map (fun (pin, _) -> resolve g.cell pin Arc.Fall) pins;
          c_out = g.out;
          c_load = net_cap t g.out;
        })
  in
  (* ASAP levelization: a gate's level is 1 + the deepest level among
     its driver nets (primary inputs sit at level 0).  Construction
     order is topological, so one forward sweep suffices. *)
  let net_level = Array.make n_nets 0 in
  let gate_level = Array.make n_gates 0 in
  let max_level = ref 0 in
  for gi = 0 to n_gates - 1 do
    let g = gates.(gi) in
    let deepest = ref 0 in
    Array.iter
      (fun (_, n) -> if net_level.(n) > !deepest then deepest := net_level.(n))
      g.c_pins;
    let lvl = !deepest + 1 in
    gate_level.(gi) <- lvl;
    net_level.(g.c_out) <- lvl;
    if lvl > !max_level then max_level := lvl
  done;
  let widths = Array.make (!max_level + 1) 0 in
  Array.iter (fun lvl -> widths.(lvl) <- widths.(lvl) + 1) gate_level;
  let levels = Array.init (!max_level + 1) (fun lvl -> Array.make widths.(lvl) 0) in
  let filled = Array.make (!max_level + 1) 0 in
  for gi = 0 to n_gates - 1 do
    let lvl = gate_level.(gi) in
    levels.(lvl).(filled.(lvl)) <- gi;
    filled.(lvl) <- filled.(lvl) + 1
  done;
  (* Level 0 holds no gates; drop it so traversal touches gates only. *)
  let levels =
    if Array.length levels > 0 then Array.sub levels 1 (Array.length levels - 1)
    else levels
  in
  { k_vdd = t.vdd; k_names = names; k_origins = origins; k_gates = gates;
    k_levels = levels }

let compiled_nets k = Array.length k.k_names

let compiled_gates k = Array.length k.k_gates

let level_widths k = Array.map Array.length k.k_levels

let check_compiled_net k n =
  if n < 0 || n >= Array.length k.k_names then
    Slc_obs.Slc_error.invalid_input ~site:"Sdag" "unknown net"

(* Shared forward pass over the compiled graph: arrivals for every net
   plus, per gate, the (driver, delay) pair of every candidate arc
   actually used — needed by the backward required-time pass.

   Gates within a level are evaluated in parallel over the domain pool
   (each gate writes only its own output-net arrival slot and its own
   [used] slot, so slots never race).  Oracle queries are pure and
   memoized first-publication-wins, so arrivals, [used] contents and
   every downstream row are bitwise independent of the domain count and
   identical to a sequential evaluation.

   Queries go through an exact query cache: by default a fresh one per
   pass, or a caller-supplied [?cache] that persists across passes.
   Within one pass hits are rare, since each fanout sibling of a net
   sees its own load: the cold pass of the 100k-gate [Generate.design]
   (seed 1) makes 332,910 lookups and 0 hits.  The cache pays off when
   the caller keeps it, as a warm pass over it is all hits. *)
let forward_compiled ?cache ?domains k (oracle : Oracle.t) ~input_arrivals =
  let oracle =
    match cache with
    | Some c -> Oracle.cached c oracle
    | None -> Oracle.cached (Oracle.make_cache ()) oracle
  in
  let n_nets = Array.length k.k_names in
  let arrivals = Array.make n_nets none in
  for n = 0 to n_nets - 1 do
    if k.k_origins.(n) < 0 then arrivals.(n) <- input_arrivals k.k_names.(n)
  done;
  let gates = k.k_gates in
  let used = Array.make (Array.length gates) [] in
  let eval gi =
    let g = gates.(gi) in
    let cload = g.c_load in
    let entries = ref [] in
    let candidate_out arcs out_dir =
      let input_rises =
        match out_dir with Arc.Fall -> true | Arc.Rise -> false
      in
      let best = ref None in
      Array.iteri
        (fun pi (_, driver) ->
          match at_edge arrivals.(driver) ~rises:input_rises with
          | None -> ()
          | Some e -> (
            match arcs.(pi) with
            | None -> ()
            | Some arc ->
              let point = { Harness.sin = e.slew; cload; vdd = k.k_vdd } in
              let d, s = oracle.Oracle.query arc point in
              entries := (driver, d) :: !entries;
              best := later !best (Some { at = e.at +. d; slew = s })))
        g.c_pins;
      !best
    in
    let rise = candidate_out g.c_rise Arc.Rise in
    let fall = candidate_out g.c_fall Arc.Fall in
    arrivals.(g.c_out) <- { rise; fall };
    used.(gi) <- !entries
  in
  Array.iter
    (fun level ->
      if Array.length level < 2 then Array.iter eval level
      else ignore (Parallel.map ?domains eval level))
    k.k_levels;
  (arrivals, used)

let analyze_compiled ?cache ?domains k (oracle : Oracle.t) ~input_arrivals
    target =
  check_compiled_net k target;
  let arrivals, _ = forward_compiled ?cache ?domains k oracle ~input_arrivals in
  arrivals.(target)

let analyze ?cache ?domains t oracle ~input_arrivals target =
  check_net t target;
  analyze_compiled ?cache ?domains (compile t) oracle ~input_arrivals target

type slack_row = {
  net_label : string;
  arrival_time : float;
  required_time : float;
  slack : float;
}

let worst_arrival a =
  match (a.rise, a.fall) with
  | None, None -> None
  | Some e, None | None, Some e -> Some e.at
  | Some r, Some f -> Some (Float.max r.at f.at)

let slack_report_compiled ?cache ?domains k oracle ~input_arrivals ~outputs =
  List.iter (fun (n, _) -> check_compiled_net k n) outputs;
  let arrivals, used =
    forward_compiled ?cache ?domains k oracle ~input_arrivals
  in
  let n_nets = Array.length k.k_names in
  let required = Array.make n_nets Float.infinity in
  List.iter (fun (n, r) -> required.(n) <- Float.min required.(n) r) outputs;
  (* Backward over gates in reverse construction (reverse topological)
     order: a driver must arrive early enough for every timing arc it
     launches.  [Float.min] over a gate's used candidates is
     order-insensitive, so the rows match the sequential reference no
     matter how the forward pass was scheduled. *)
  let gates = k.k_gates in
  for gi = Array.length gates - 1 downto 0 do
    let g = gates.(gi) in
    let r_out = required.(g.c_out) in
    if r_out < Float.infinity then
      List.iter
        (fun (driver, d) ->
          required.(driver) <- Float.min required.(driver) (r_out -. d))
        used.(gi)
  done;
  let rows = ref [] in
  for n = 0 to n_nets - 1 do
    match worst_arrival arrivals.(n) with
    | None -> ()
    | Some at ->
      rows :=
        {
          net_label = k.k_names.(n);
          arrival_time = at;
          required_time = required.(n);
          slack = required.(n) -. at;
        }
        :: !rows
  done;
  List.sort (fun a b -> Float.compare a.slack b.slack) !rows

let slack_report ?cache ?domains t oracle ~input_arrivals ~outputs =
  List.iter (fun (n, _) -> check_net t n) outputs;
  slack_report_compiled ?cache ?domains (compile t) oracle ~input_arrivals
    ~outputs
