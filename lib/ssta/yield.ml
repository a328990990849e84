module Describe = Slc_prob.Describe

type result = {
  clock_period : float;
  n_seeds : int;
  n_pass : int;
  yield : float;
  delays : float array;
  mean_delay : float;
  sigma_delay : float;
  worst_delay : float;
}

let of_delays ~clock_period delays =
  let n = Array.length delays in
  if n < 2 then Slc_obs.Slc_error.invalid_input ~site:"Yield.of_delays" "need >= 2 seeds";
  if clock_period <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Yield.of_delays" "bad period";
  let n_pass =
    Array.fold_left (fun acc d -> if d <= clock_period then acc + 1 else acc) 0 delays
  in
  {
    clock_period;
    n_seeds = n;
    n_pass;
    yield = float_of_int n_pass /. float_of_int n;
    delays = Array.copy delays;
    mean_delay = Describe.mean delays;
    sigma_delay = Describe.std delays;
    worst_delay = Array.fold_left Float.max delays.(0) delays;
  }

let of_path ~population ~seeds ~clock_period chain ~sin ~vdd ~in_rises =
  let delays = Path.statistical ~population ~seeds chain ~sin ~vdd ~in_rises in
  of_delays ~clock_period delays

let of_dag ~population ~seeds ~clock_period dag ~input_arrivals ~outputs =
  let module Statistical = Slc_core.Statistical in
  (* One population per distinct arc, built lazily; the DAG pass
     queries from every pool domain. *)
  let pop_of = Oracle.per_arc population in
  let delays =
    Array.map
      (fun seed ->
        let oracle =
          {
            Oracle.label = "per-seed";
            query =
              (fun arc point ->
                let pop = pop_of arc in
                ( pop.Statistical.predict_td seed point,
                  pop.Statistical.predict_sout seed point ));
          }
        in
        let worst = ref neg_infinity in
        List.iter
          (fun out ->
            let arr = Sdag.analyze dag oracle ~input_arrivals out in
            List.iter
              (fun rises ->
                match Sdag.at_edge arr ~rises with
                | Some e -> worst := Float.max !worst e.Sdag.at
                | None -> ())
              [ true; false ])
          outputs;
        if !worst = neg_infinity then
          Slc_obs.Slc_error.invalid_input ~site:"Yield.of_dag" "no arrival at any output";
        !worst)
      seeds
  in
  of_delays ~clock_period delays

let required_period r ~target_yield =
  if target_yield <= 0.0 || target_yield > 1.0 then
    Slc_obs.Slc_error.invalid_input ~site:"Yield.required_period" "target must be in (0,1]";
  Describe.quantile r.delays target_yield

let pp ppf r =
  Format.fprintf ppf
    "yield %.1f%% at Tclk=%.2fps over %d seeds (path delay %.2f +/- %.2f ps, worst %.2f)"
    (100.0 *. r.yield)
    (r.clock_period *. 1e12)
    r.n_seeds
    (r.mean_delay *. 1e12)
    (r.sigma_delay *. 1e12)
    (r.worst_delay *. 1e12)
