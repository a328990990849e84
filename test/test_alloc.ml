(* Allocation regression gate for the transient hot path.

   A warmed [Harness.simulate] (template compiled, workspaces cached)
   allocates ~32.6k minor words per call, essentially all of it in the
   waveform recording and measurement layers — the Newton/stamp/LU core
   is allocation-free (see [@slc.hot] and lint rule R3).  The budget
   below is that measurement plus 10% headroom: a regression that puts
   boxing back into the solver loop costs hundreds of kwords per call
   and trips this immediately, while legitimate small changes to the
   measurement layer fit inside the slack. *)

module Tech = Slc_device.Tech
module Harness = Slc_cell.Harness
module Arc = Slc_cell.Arc
module Cells = Slc_cell.Cells

let budget_words = 36_300.0

let test_warm_simulate_allocation () =
  let tech = Tech.n14 in
  let arc = List.hd (Arc.all_of_cell Cells.inv) in
  let point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  (* Two warm-up calls: the first builds and caches the compiled
     template, the second settles any lazy one-time state. *)
  ignore (Harness.simulate tech arc point);
  ignore (Harness.simulate tech arc point);
  let before = Gc.minor_words () in
  ignore (Harness.simulate tech arc point);
  let delta = Gc.minor_words () -. before in
  if delta > budget_words then
    Alcotest.failf
      "warmed Harness.simulate allocated %.0f minor words (budget %.0f): \
       boxing crept back into the transient hot path"
      delta budget_words

let test_warm_simulate_is_cached () =
  let tech = Tech.n14 in
  let arc = List.hd (Arc.all_of_cell Cells.nand2) in
  let point = { Harness.sin = 5e-12; cload = 2e-15; vdd = 0.8 } in
  ignore (Harness.simulate tech arc point);
  let hits0 = Slc_obs.Telemetry.read Slc_obs.Telemetry.template_hits in
  ignore (Harness.simulate tech arc point);
  let hits1 = Slc_obs.Telemetry.read Slc_obs.Telemetry.template_hits in
  (* Telemetry may be disabled in this environment; only assert when the
     counters are live, otherwise the allocation gate above still holds. *)
  if Slc_obs.Telemetry.on () then
    Alcotest.(check bool)
      "second simulate reuses the compiled template" true (hits1 > hits0)

let () =
  Alcotest.run "alloc"
    [
      ( "transient",
        [
          Alcotest.test_case "warmed simulate fits budget" `Quick
            test_warm_simulate_allocation;
          Alcotest.test_case "template cache hit" `Quick
            test_warm_simulate_is_cached;
        ] );
    ]
