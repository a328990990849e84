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

(* Oracle queries: one per timing arc evaluated in an SSTA pass, so
   their per-call allocation is paid hundreds of thousands of times per
   100k-gate design.  A warmed [Oracle.of_library] query allocates
   ~27 minor words (the boxed results and the library scan); an
   [Oracle.cached] hit ~36 (the arc name and the key tuple, plus the
   closures handed to the memo).  Budgets are those measurements plus
   10%: a boxing closure back in [Nldm.lookup] costs over 100 words
   per query, a [Printf] arc name about 50. *)

let library_query_budget_words = 30.0

let cached_hit_budget_words = 40.0

let query_fixture =
  lazy
    (let lib =
       Slc_cell.Library.characterize ~cells:[ Cells.nand2 ] Tech.n14
         ~levels:[| 2; 2; 2 |]
     in
     (lib, List.nth (Slc_cell.Library.arcs lib) 2,
      { Harness.sin = 7e-12; cload = 2.5e-15; vdd = 0.75 }))

let check_query_budget what budget query arc point =
  ignore (Sys.opaque_identity (query arc point));
  ignore (Sys.opaque_identity (query arc point));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (query arc point));
  let delta = Gc.minor_words () -. before in
  if delta > budget then
    Alcotest.failf "%s allocated %.0f minor words per query (budget %.0f)" what
      delta budget

let test_library_query_allocation () =
  let lib, arc, point = Lazy.force query_fixture in
  let oracle = Slc_ssta.Oracle.of_library lib in
  check_query_budget "warmed Oracle.of_library" library_query_budget_words
    oracle.Slc_ssta.Oracle.query arc point

let test_cached_hit_allocation () =
  let lib, arc, point = Lazy.force query_fixture in
  let oracle =
    Slc_ssta.Oracle.cached (Slc_ssta.Oracle.make_cache ())
      (Slc_ssta.Oracle.of_library lib)
  in
  check_query_budget "Oracle.cached hit" cached_hit_budget_words
    oracle.Slc_ssta.Oracle.query arc point

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
      ( "oracle",
        [
          Alcotest.test_case "warmed library query fits budget" `Quick
            test_library_query_allocation;
          Alcotest.test_case "cached hit fits budget" `Quick
            test_cached_hit_allocation;
        ] );
    ]
