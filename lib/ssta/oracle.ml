module Arc = Slc_cell.Arc
module Harness = Slc_cell.Harness
module Library = Slc_cell.Library
module Nldm = Slc_cell.Nldm
module Char_flow = Slc_core.Char_flow
module Telemetry = Slc_obs.Telemetry

type t = {
  query : Arc.t -> Harness.point -> float * float;
  label : string;
}

(* Per-arc memos are queried concurrently: a levelized parallel timing
   pass ([Sdag.forward_compiled]) calls [oracle.query] from every pool
   domain on shard-cache misses, and the long-lived characterization
   server answers many connections against one oracle value.  [Memo]
   runs [build] outside its locks — predictor training costs
   simulations, possibly through the worker pool itself. *)
let per_arc build =
  let memo = Slc_num.Memo.create () in
  fun arc -> Slc_num.Memo.find_or_build memo (Arc.name arc) (fun () -> build arc)

let of_predictors ~label build =
  let get = per_arc build in
  {
    label;
    query =
      (fun arc point ->
        let p = get arc in
        (p.Char_flow.predict_td point, p.Char_flow.predict_sout point));
  }

let of_library lib =
  {
    label = "nldm-library";
    query =
      (fun arc point ->
        match
          Library.find lib ~cell:arc.Arc.cell.Slc_cell.Cells.name
            ~pin:arc.Arc.pin ~out_dir:arc.Arc.out_dir
        with
        | Some e ->
          (Nldm.lookup_td e.Library.table point,
           Nldm.lookup_sout e.Library.table point)
        | None -> raise Not_found);
  }

let of_simulator ?seed tech =
  {
    label = "simulator";
    query =
      (fun arc point ->
        let m = Harness.simulate ?seed tech arc point in
        (m.Harness.td, m.Harness.sout));
  }

(* ------------------------------------------------------------------ *)
(* Query-result cache.

   Oracle queries are pure (training happens once per arc; predictors
   and tables are deterministic functions of the point), so repeated
   identical queries — a design re-timed over a kept cache, a server
   answering the same point again — can reuse the first answer.  Keys
   are the literal point coordinates, so cached results are bitwise
   identical to uncached ones, and [Memo]'s shards let the levelized
   parallel pass contend on independent locks. *)

type cache = (string * float * float * float, float * float) Slc_num.Memo.t

let make_cache () =
  Slc_num.Memo.create ~hits:Telemetry.oracle_hits
    ~misses:Telemetry.oracle_misses ()

let cache_size = Slc_num.Memo.size

let cached c oracle =
  let query arc (point : Harness.point) =
    let key =
      (Arc.name arc, point.Harness.sin, point.Harness.cload, point.Harness.vdd)
    in
    Slc_num.Memo.find_or_build c key (fun () -> oracle.query arc point)
  in
  { oracle with query }

(* ------------------------------------------------------------------ *)
(* Process-wide trained-predictor cache for [bayes_bank].

   Training is deterministic and pure — the same (prior, tech, k, seed,
   arc, fallback) always yields the same predictor — so there is no
   reason to pay the k simulations again because a caller rebuilt the
   oracle value.  The key is the persistent store's predictor key,
   computed from the prior's content fingerprint: a content-equal prior
   (e.g. one reloaded from disk) hits, and the in-process and on-disk
   tiers share one key scheme. *)

let trained : (Slc_store.Store.key, Char_flow.predictor) Slc_num.Memo.t =
  Slc_num.Memo.create ~hits:Telemetry.trained_hits
    ~misses:Telemetry.trained_misses ()

let train ?seed ?gpr_fallback ~prior tech arc ~k =
  match gpr_fallback with
  | None -> Char_flow.train_bayes ?seed ~prior tech arc ~k
  | Some threshold ->
    (* Same curated design and MAP fit as [train_bayes], but the
       dataset is kept so the analytical fit can be checked against it
       and replaced by a GPR model when its residuals exceed the
       threshold. *)
    let ds =
      Char_flow.simulate_dataset ?seed tech arc
        (Slc_core.Input_space.fitting_points tech ~k)
    in
    let p = Char_flow.train_bayes_on ?seed ~prior tech ds in
    Char_flow.with_gpr_fallback ~threshold tech ds p

let bayes_bank ?seed ?store ?gpr_fallback ~prior tech ~k =
  (* Serialize the prior once per bank, not once per arc. *)
  let prior_fp = Slc_store.Store.prior_fingerprint prior in
  of_predictors ~label:(Printf.sprintf "bayes-k%d" k) (fun arc ->
      let key =
        Slc_store.Store.predictor_key ?gpr:gpr_fallback ~prior_fp ~tech ~arc ~k
          ~seed ()
      in
      Slc_num.Memo.find_or_build trained key (fun () ->
          match store with
          | None -> train ?seed ?gpr_fallback ~prior tech arc ~k
          | Some st -> (
            match Slc_store.Store.find_predictor ?seed st ~key ~tech ~arc with
            | Some p ->
              Telemetry.incr Telemetry.store_hits;
              p
            | None ->
              Telemetry.incr Telemetry.store_misses;
              let p = train ?seed ?gpr_fallback ~prior tech arc ~k in
              Slc_store.Store.put_predictor st ~key p;
              p)))
