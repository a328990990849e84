(* slc_lint analysis engine.

   Reads the typed trees dune leaves behind in [.cmt] files (built by
   the [@check] alias) and enforces the repo invariants documented in
   docs/lint.md:

     R1  error-taxonomy       no raw [failwith] / [invalid_arg] /
                              [raise (Failure _)] in lib/ outside lib/num
     R2  domain-safety        toplevel mutable state must be Atomic,
                              lock-guarded (annotated), or DLS
     R3  hot-path-alloc       [@slc.hot] functions contain no boxing
                              constructs
     R4  exception-safety     mutate-then-restore must go through
                              [Fun.protect]
     R5  transitive-hot-alloc R3 propagated through the call graph:
                              everything reachable from an [@slc.hot]
                              body must be allocation-free, itself
                              [@slc.hot], or escaped
     R6  lock-order           held-while-acquiring cycles and locks
                              held across pool submission / simulation
     R7  determinism          Hashtbl iteration order, wall clocks and
                              float physical equality in functions
                              reachable from the bitwise-contract
                              entry points

   R1–R4 are per-function; R5–R7 run over a module-qualified def/use
   call graph resolved across every scanned compilation unit (see
   "Call graph" below for the documented conservative treatment of
   higher-order and functor-opaque calls).  Every rule can be silenced
   at a use site with a reasoned annotation:

     [@slc.raw_exn "reason"]      silences R1
     [@slc.domain_safe "reason"]  silences R2
     [@slc.hot]                   marks a function for R3/R5 checking
     [@slc.exn_safe "reason"]     silences R4
     [@slc.alloc_ok "reason"]     R5: callee may allocate (cuts the walk)
     [@slc.lock_ok "reason"]      R6: this function's lock usage is
                                  intentional (cuts its findings)
     [@slc.det_ok "reason"]       R7: value cannot affect results
                                  (definition- or expression-level)
     [@slc.det_root]              R7: extra determinism root (marker,
                                  no reason required)

   This module only unmarshals cmt files and walks saved trees; it
   never queries the type environment, so it needs no load path. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7

let all_rules = [ R1; R2; R3; R4; R5; R6; R7 ]

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"

let rule_name = function
  | R1 -> "error-taxonomy"
  | R2 -> "domain-safety"
  | R3 -> "hot-path-alloc"
  | R4 -> "exception-safety"
  | R5 -> "transitive-hot-alloc"
  | R6 -> "lock-order"
  | R7 -> "determinism"

let rule_of_id = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | _ -> None

type finding = {
  rule : rule;
  file : string;  (* build-root-relative source path from the cmt *)
  line : int;
  col : int;
  message : string;
}

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
    match compare a.line b.line with
    | 0 -> (
      match compare a.col b.col with
      | 0 -> String.compare a.message b.message
      | c -> c)
    | c -> c)
  | c -> c

(* ------------------------------------------------------------------ *)
(* Attribute helpers *)

let attr_payload_string (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

type annot = No_annot | Reasoned | Unreasoned

let find_annot name (attrs : Parsetree.attributes) =
  match
    List.find_opt (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs
  with
  | None -> No_annot
  | Some a -> (
    match attr_payload_string a with
    | Some s when String.trim s <> "" -> Reasoned
    | Some _ | None -> Unreasoned)

let has_attr name (attrs : Parsetree.attributes) =
  find_annot name attrs <> No_annot

(* ------------------------------------------------------------------ *)
(* Path classification.  Saved paths print as e.g. "Stdlib.failwith",
   "Stdlib!.failwith" or "Stdlib__Hashtbl.create" depending on how the
   source referred to them, so matching normalizes the stdlib prefixes
   away and then compares the remaining dotted name. *)

let strip_prefix pre s =
  if String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre
  then String.sub s (String.length pre) (String.length s - String.length pre)
  else s

let has_prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

let normalize_path_name name =
  name |> strip_prefix "Stdlib!." |> strip_prefix "Stdlib." |> strip_prefix "Stdlib__"

let expr_head_name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> Some (normalize_path_name (Path.name path))
  | _ -> None

let name_is candidates name = List.mem name candidates

(* Heads whose arguments are only ever evaluated on the failure path:
   allocation below them never runs in a converged hot loop, and raw
   raises below them are themselves R1's business, not R3's. *)
let raise_like name =
  name_is [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ] name
  || (String.length name >= 6 && String.sub name 0 6 = "raise_")
  ||
  (* Typed raise helpers live in Slc_error (referenced as
     Slc_error.…, Slc_obs.Slc_error.…, or Slc_obs__Slc_error.…). *)
  let rec has_component s =
    match String.index_opt s '.' with
    | None -> s = "Slc_error"
    | Some i ->
      String.sub s 0 i = "Slc_error"
      || has_component (String.sub s (i + 1) (String.length s - i - 1))
  in
  has_component name

(* ------------------------------------------------------------------ *)
(* Per-file lint state *)

type ctx = {
  src : string;  (* reported file path *)
  lib_scope : bool;  (* R1 applies (under lib/, outside lib/num) *)
  mutable findings : finding list;
}

let report ctx rule (loc : Location.t) message =
  ctx.findings <-
    {
      rule;
      file = ctx.src;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      message;
    }
    :: ctx.findings

(* ================================================================== *)
(* R1: error taxonomy *)

let r1_banned_head name =
  name_is [ "failwith"; "invalid_arg" ] name

let r1_banned_exn cstr_name =
  cstr_name = "Failure" || cstr_name = "Invalid_argument"

(* Walk every expression; a [@slc.raw_exn "…"] annotation on an
   enclosing value binding or on the expression itself suppresses. *)
let check_r1 ctx (str : Typedtree.structure) =
  if ctx.lib_scope then begin
    let depth = ref 0 in
    let enter attrs = if has_attr "slc.raw_exn" attrs then incr depth in
    let leave attrs = if has_attr "slc.raw_exn" attrs then decr depth in
    let suppressed () = !depth > 0 in
    let warn_unreasoned attrs loc =
      if find_annot "slc.raw_exn" attrs = Unreasoned then
        report ctx R1 loc "[@slc.raw_exn] annotation needs a reason string"
    in
    let default = Tast_iterator.default_iterator in
    let expr sub (e : Typedtree.expression) =
      enter e.exp_attributes;
      warn_unreasoned e.exp_attributes e.exp_loc;
      (if not (suppressed ()) then
         match e.exp_desc with
         | Texp_apply (head, (_, Some arg) :: _) -> (
           match expr_head_name head with
           | Some name when r1_banned_head name ->
             report ctx R1 e.exp_loc
               (Printf.sprintf
                  "raw [%s] — raise a typed Slc_error (e.g. \
                   Slc_error.invalid_input) or annotate [@slc.raw_exn \
                   \"reason\"]"
                  name)
           | Some name when name_is [ "raise"; "raise_notrace" ] name -> (
             match arg.exp_desc with
             | Texp_construct (_, cstr, _) when r1_banned_exn cstr.cstr_name ->
               report ctx R1 e.exp_loc
                 (Printf.sprintf
                    "raw [raise (%s _)] — raise a typed Slc_error or \
                     annotate [@slc.raw_exn \"reason\"]"
                    cstr.cstr_name)
             | _ -> ())
           | _ -> ())
         | _ -> ());
      default.expr sub e;
      leave e.exp_attributes
    in
    let value_binding sub (vb : Typedtree.value_binding) =
      enter vb.vb_attributes;
      warn_unreasoned vb.vb_attributes vb.vb_loc;
      default.value_binding sub vb;
      leave vb.vb_attributes
    in
    let it = { default with expr; value_binding } in
    it.structure it str
  end

(* ================================================================== *)
(* R2: domain safety of toplevel mutable state *)

(* Creation heads that are already safe to share across domains. *)
let r2_safe_head name =
  name_is
    [
      "Atomic.make";
      "Mutex.create";
      "Condition.create";
      "Semaphore.Counting.make";
      "Semaphore.Binary.make";
      "Domain.DLS.new_key";
    ]
    name

(* Creation heads that build unsynchronized mutable state. *)
let r2_mutable_head name =
  name_is
    [
      "ref";
      "Hashtbl.create";
      "Queue.create";
      "Stack.create";
      "Buffer.create";
      "Bytes.create";
      "Bytes.make";
    ]
    name

let record_has_mutable_label (fields : (Types.label_description * _) array) =
  Array.exists (fun ((lbl : Types.label_description), _) -> lbl.lbl_mut = Mutable) fields

(* Scan the right-hand side of a structure-level binding for mutable
   state that will be shared by every domain.  Function bodies are NOT
   entered: state created per call (or stashed in DLS) is per-domain by
   construction.  Arrays are also skipped — the codebase's toplevel
   arrays are lookup tables written once at init (a documented blind
   spot). *)
let rec r2_scan ctx (e : Typedtree.expression) =
  if has_attr "slc.domain_safe" e.exp_attributes then ()
  else
    match e.exp_desc with
    | Texp_function _ -> ()
    | Texp_apply (head, args) -> (
      match expr_head_name head with
      | Some name when r2_safe_head name -> ()
      | Some name when r2_mutable_head name ->
        report ctx R2 e.exp_loc
          (Printf.sprintf
             "toplevel mutable state via [%s] — use Atomic, a \
              mutex-guarded structure annotated [@slc.domain_safe \
              \"reason\"], or Domain.DLS"
             name)
      | _ ->
        List.iter (fun (_, a) -> Option.iter (r2_scan ctx) a) args)
    | Texp_record { fields; extended_expression; _ } ->
      if record_has_mutable_label fields then
        report ctx R2 e.exp_loc
          "toplevel record with mutable fields — guard it and annotate \
           [@slc.domain_safe \"reason\"] or make the fields Atomic"
      else begin
        Array.iter
          (fun (_, def) ->
            match def with
            | Typedtree.Overridden (_, e) -> r2_scan ctx e
            | Typedtree.Kept _ -> ())
          fields;
        Option.iter (r2_scan ctx) extended_expression
      end
    | Texp_let (_, vbs, body) ->
      List.iter (fun (vb : Typedtree.value_binding) -> r2_scan ctx vb.vb_expr) vbs;
      r2_scan ctx body
    | Texp_tuple es -> List.iter (r2_scan ctx) es
    | Texp_construct (_, _, es) -> List.iter (r2_scan ctx) es
    | Texp_sequence (a, b) ->
      r2_scan ctx a;
      r2_scan ctx b
    | Texp_open (_, body) -> r2_scan ctx body
    | _ -> ()

(* R2, escaping-closure extension.  [r2_scan] deliberately skips
   function bodies: state created per call dies with the call.  That
   leaves one way per-call state becomes shared state — a factory whose
   body creates a mutable structure and returns a closure capturing it:

     let memo build =
       let table = Hashtbl.create 16 in
       fun x -> … table …

   Every caller of the returned closure then shares [table], across
   domains, exactly like a toplevel table.  This pass walks {e inside}
   functions and flags let-chains that create unsynchronized mutable
   state and end in a [fun].

   Tolerated, by the guarded-memo convention (a hand-rolled memo that
   binds its lock beside its table; library caches use [Slc_num.Memo]):
   a binding anywhere in the same chain — or in an enclosing chain of
   the same function — whose head is a safe creation ([Mutex.create],
   [Atomic.make], …), plus the usual [@slc.domain_safe "reason"]
   annotation.  Chains whose tail returns closures indirectly (a record
   of closures, a partial application) are a documented blind spot. *)

let creation_head (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (head, _) -> expr_head_name head
  | _ -> None

let binds_safe_creation (vbs : Typedtree.value_binding list) =
  List.exists
    (fun (vb : Typedtree.value_binding) ->
      match creation_head vb.vb_expr with
      | Some name -> r2_safe_head name
      | None -> false)
    vbs

let rec r2_chain_final (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, _, body) | Texp_open (_, body) | Texp_sequence (_, body) ->
    r2_chain_final body
  | _ -> e

let rec r2_chain_has_safe (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, vbs, body) -> binds_safe_creation vbs || r2_chain_has_safe body
  | Texp_open (_, body) | Texp_sequence (_, body) -> r2_chain_has_safe body
  | _ -> false

let check_r2_escapes ctx (str : Typedtree.structure) =
  let fun_depth = ref 0 in
  let safe_scope = ref 0 in
  let annot_depth = ref 0 in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    let annotated = has_attr "slc.domain_safe" e.exp_attributes in
    if annotated then incr annot_depth;
    (match e.exp_desc with
    | Texp_let (_, vbs, body)
      when !fun_depth > 0 && !annot_depth = 0 && !safe_scope = 0
           && not (r2_chain_has_safe e) -> (
      match (r2_chain_final body).exp_desc with
      | Texp_function _ ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            if find_annot "slc.domain_safe" vb.vb_attributes = No_annot then
              match creation_head vb.vb_expr with
              | Some name when r2_mutable_head name ->
                report ctx R2 vb.vb_loc
                  (Printf.sprintf
                     "mutable state via [%s] is captured by a returned \
                      closure — it outlives the call and is shared by every \
                      caller across domains; guard it with a sibling \
                      Mutex/Atomic in the same chain or annotate \
                      [@slc.domain_safe \"reason\"]"
                     name)
              | _ -> ())
          vbs
      | _ -> ())
    | _ -> ());
    let enters_fun =
      match e.exp_desc with Texp_function _ -> true | _ -> false
    in
    let adds_safe =
      match e.exp_desc with
      | Texp_let (_, vbs, _) -> binds_safe_creation vbs
      | _ -> false
    in
    if enters_fun then incr fun_depth;
    if adds_safe then incr safe_scope;
    default.expr sub e;
    if adds_safe then decr safe_scope;
    if enters_fun then decr fun_depth;
    if annotated then decr annot_depth
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let annotated = find_annot "slc.domain_safe" vb.vb_attributes <> No_annot in
    if annotated then incr annot_depth;
    default.value_binding sub vb;
    if annotated then decr annot_depth
  in
  let it = { default with expr; value_binding } in
  it.structure it str

let rec check_r2_structure ctx (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match find_annot "slc.domain_safe" vb.vb_attributes with
            | Reasoned -> ()
            | Unreasoned ->
              report ctx R2 vb.vb_loc
                "[@slc.domain_safe] annotation needs a reason string"
            | No_annot -> r2_scan ctx vb.vb_expr)
          vbs
      | Tstr_module mb -> check_r2_module ctx mb.mb_expr
      | Tstr_recmodule mbs ->
        List.iter (fun (mb : Typedtree.module_binding) -> check_r2_module ctx mb.mb_expr) mbs
      | Tstr_include incl -> check_r2_module ctx incl.incl_mod
      | _ -> ())
    str.str_items

and check_r2_module ctx (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> check_r2_structure ctx str
  | Tmod_constraint (me, _, _, _) -> check_r2_module ctx me
  | _ -> ()

(* ================================================================== *)
(* Allocation scanner, shared by R3 (direct [@slc.hot] bodies) and R5
   (functions reached from a hot body through the call graph). *)

(* Scan a function body for boxing constructs.  [flag loc what] is
   called per construct; subtrees under raise-like heads are
   failure-path-only and skipped.  Local [ref]s are tolerated: the
   compiler turns non-escaping refs into mutable stack variables, and
   the transient bench pins the actual allocation count. *)
let rec alloc_scan ~flag (e : Typedtree.expression) =
  let here what = flag e.exp_loc what in
  let deeper = alloc_scan ~flag in
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    here "closure (local function or fun literal)";
    List.iter (fun (c : _ Typedtree.case) -> deeper c.c_rhs) cases
  | Texp_tuple es ->
    here "tuple literal";
    List.iter deeper es
  | Texp_record { fields; extended_expression; _ } ->
    here "record literal";
    Array.iter
      (fun (_, def) ->
        match def with
        | Typedtree.Overridden (_, e) -> deeper e
        | Typedtree.Kept _ -> ())
      fields;
    Option.iter deeper extended_expression
  | Texp_array es ->
    if es <> [] then here "array literal";
    List.iter deeper es
  | Texp_lazy _ -> here "lazy block"
  | Texp_apply (head, args) -> (
    match expr_head_name head with
    | Some name when raise_like name ->
      (* Failure path: everything below only allocates when raising. *)
      ()
    | Some name
      when name_is [ "Printf.sprintf"; "Printf.printf"; "Printf.eprintf" ] name
           || strip_prefix "Printf." name <> name
           || strip_prefix "Format." name <> name ->
      here (Printf.sprintf "call to [%s]" name)
    | _ ->
      if List.exists (fun (_, a) -> a = None) args then
        here "partial application (closure)";
      deeper head;
      List.iter (fun (_, a) -> Option.iter deeper a) args)
  | Texp_let (_, vbs, body) ->
    List.iter (fun (vb : Typedtree.value_binding) -> deeper vb.vb_expr) vbs;
    deeper body
  | Texp_sequence (a, b) ->
    deeper a;
    deeper b
  | Texp_ifthenelse (c, t, e_) ->
    deeper c;
    deeper t;
    Option.iter deeper e_
  | Texp_match (scrut, cases, _) ->
    deeper scrut;
    List.iter (fun (c : _ Typedtree.case) -> deeper c.c_rhs) cases
  | Texp_try (body, cases) ->
    deeper body;
    List.iter (fun (c : _ Typedtree.case) -> deeper c.c_rhs) cases
  | Texp_while (c, body) ->
    deeper c;
    deeper body
  | Texp_for (_, _, lo, hi, _, body) ->
    deeper lo;
    deeper hi;
    deeper body
  | Texp_setfield (a, _, _, b) ->
    deeper a;
    deeper b
  | Texp_field (a, _, _) -> deeper a
  | Texp_construct (_, _, es) ->
    (* [Some k] at a return site is tolerated: it allocates once per
       call, not per iteration, and option results are the module
       convention.  Arguments are still scanned. *)
    List.iter deeper es
  | Texp_open (_, body) -> deeper body
  | _ -> ()

(* ================================================================== *)
(* R3: no boxing in [@slc.hot] functions *)

(* The annotated binding's outer [fun] parameters are the function's
   own arguments, not allocations — unwrap them before scanning.  An
   optional argument with a default ([?(tol = 1e-9)]) desugars to a
   compiler-generated [let tol = match *opt* with …] between two
   parameter functions; those wrappers are unwrapped too (the default
   expressions themselves are not scanned — a documented blind spot,
   they are constants throughout the codebase). *)
let is_opt_default_binding (vb : Typedtree.value_binding) =
  match vb.vb_expr.exp_desc with
  | Texp_match (scrut, _, _) -> (
    match scrut.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Ident.name id = "*opt*"
    | _ -> false)
  | _ -> false

let rec r3_unwrap_params (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> r3_unwrap_params c.c_rhs
  | Texp_let (Nonrecursive, [ vb ], body) when is_opt_default_binding vb ->
    r3_unwrap_params body
  | _ -> e

let check_r3 ctx (str : Typedtree.structure) =
  let default = Tast_iterator.default_iterator in
  let value_binding sub (vb : Typedtree.value_binding) =
    if has_attr "slc.hot" vb.vb_attributes then begin
      let fname =
        match vb.vb_pat.pat_desc with
        | Tpat_var (id, _) -> Ident.name id
        | _ -> "<pattern>"
      in
      let flag loc what =
        report ctx R3 loc
          (Printf.sprintf "[@slc.hot] %s: %s allocates on the hot path" fname
             what)
      in
      alloc_scan ~flag (r3_unwrap_params vb.vb_expr)
    end;
    default.value_binding sub vb
  in
  let it = { default with value_binding } in
  it.structure it str

(* ================================================================== *)
(* R4: mutate-then-restore must use Fun.protect *)

(* Pattern matched:

     let saved = x.f          (or  let saved = !r)
     …
     x.f <- saved             (or  r := saved)

   where the restore write is NOT syntactically inside an argument of a
   [Fun.protect] application.  The restore-by-name link makes this
   precise enough to run repo-wide: saves that are never written back
   (plain reads) and restores already routed through Fun.protect do not
   fire. *)

(* What location the save read from: a mutable record field (matched by
   label name on restore) or a ref cell (matched by the ref's own ident
   when it is a plain variable).  Linking the restore back to the same
   location is what keeps "read a mutable field, later store that value
   somewhere else" from firing. *)
type r4_source = Src_field of string | Src_ref of Ident.t | Src_ref_opaque

let r4_source_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_field (_, _, lbl) when lbl.lbl_mut = Mutable -> Some (Src_field lbl.lbl_name)
  | Texp_apply (head, [ (_, Some cell) ]) -> (
    match expr_head_name head with
    | Some "!" -> (
      match cell.exp_desc with
      | Texp_ident (Path.Pident rid, _, _) -> Some (Src_ref rid)
      | _ -> Some Src_ref_opaque)
    | _ -> None)
  | _ -> None

let is_ident id (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident rid, _, _) -> Ident.same rid id
  | _ -> false

let restore_of_ident ~src id (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_setfield (_, _, lbl, rhs) -> (
    match src with
    | Src_field name -> lbl.lbl_name = name && is_ident id rhs
    | Src_ref _ | Src_ref_opaque -> false)
  | Texp_apply (head, [ (_, Some cell); (_, Some rhs) ]) -> (
    match (expr_head_name head, src) with
    | Some ":=", Src_ref rid -> is_ident rid cell && is_ident id rhs
    | Some ":=", Src_ref_opaque -> is_ident id rhs
    | _ -> false)
  | _ -> false

(* Does [e] contain a restore of [id] outside any Fun.protect call? *)
let unprotected_restore ~src id (e : Typedtree.expression) =
  let found = ref false in
  let protect_depth = ref 0 in
  let default = Tast_iterator.default_iterator in
  let expr sub (x : Typedtree.expression) =
    let entering_protect =
      match x.exp_desc with
      | Texp_apply (head, _) -> (
        match expr_head_name head with
        | Some name -> name_is [ "Fun.protect"; "protect" ] name
        | None -> false)
      | _ -> false
    in
    if entering_protect then incr protect_depth;
    if !protect_depth = 0 && restore_of_ident ~src id x then found := true;
    default.expr sub x;
    if entering_protect then decr protect_depth
  in
  let it = { default with expr } in
  it.expr it e;
  !found

let check_r4 ctx (str : Typedtree.structure) =
  let annot_depth = ref 0 in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_let (_, [ vb ], body) when !annot_depth = 0 -> (
      match (vb.vb_pat.pat_desc, r4_source_of vb.vb_expr) with
      | Tpat_var (id, _), Some src ->
        if unprotected_restore ~src id body then
          report ctx R4 vb.vb_loc
            (Printf.sprintf
               "save/restore of mutable state through [%s] without \
                Fun.protect — an exception between save and restore \
                leaks the mutation (annotate [@slc.exn_safe \"reason\"] \
                if that is intended)"
               (Ident.name id))
      | _ -> ())
    | _ -> ());
    let annotated = has_attr "slc.exn_safe" e.exp_attributes in
    if annotated then incr annot_depth;
    default.expr sub e;
    if annotated then decr annot_depth
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let annotated = has_attr "slc.exn_safe" vb.vb_attributes in
    if annotated then incr annot_depth;
    default.value_binding sub vb;
    if annotated then decr annot_depth
  in
  let it = { default with expr; value_binding } in
  it.structure it str

(* ================================================================== *)
(* Call graph.

   R5–R7 need to know, for every toplevel (or nested-module-level)
   binding in the scanned units, which other bindings its body can
   call.  The graph is resolved from saved [Texp_apply] heads and
   by-name references:

     - [Pident] heads resolve through a per-unit table of the unit's
       own bindings (keyed by the ident's unique stamp, so shadowing
       is exact);
     - [Pdot] heads are canonicalized — dune's wrapped-library name
       mangling ([Slc_cell__Harness] / [Slc_cell.Harness]) is undone
       by taking the part after the last "__" of each path component
       and dropping leading wrapper components — and looked up in a
       global name table, first as written ("Harness.simulate"), then
       qualified by the calling unit ("Parallel.Pool.run" for a local
       submodule call written [Pool.run]).

   Documented conservative approximations:

     - higher-order calls: a function VALUE passed as an argument is
       recorded as a by-name reference (followed by R5/R7, which care
       about reachability) but calls through an opaque parameter
       ([f x] where [f] is a parameter) are invisible — the graph has
       no edge for them;
     - functor bodies are opaque: bindings under [Tmod_functor] (and
       instances of [Module.Make]) are neither collected nor resolved;
     - method-style calls through record fields ([oracle.query x]) are
       invisible for the same reason as opaque parameters;
     - acquisitions performed inside a closure a function builds are
       attributed to the function that builds the closure (an
       over-approximation that keeps factories like [Oracle.per_arc],
       whose closure takes [Slc_num.Memo] shard locks, visible to R6). *)

type lockid =
  | Lglobal of string  (* canonical def name of a Mutex.create binding *)
  | Lfield of string  (* "Type.label" for a mutex stored in a record *)
  | Lopaque of string  (* unresolvable lock expr, one class per def *)

let lock_label = function Lglobal s | Lfield s | Lopaque s -> s

type def = {
  d_name : string;  (* module-qualified, e.g. "Parallel.Pool.run" *)
  d_unit_mod : string;  (* canonical unit module, e.g. "Parallel" *)
  d_src : string;
  d_loc : Location.t;
  d_attrs : Parsetree.attributes;
  d_body : Typedtree.expression;
  d_is_fun : bool;
  d_is_mutex : bool;
  mutable d_calls : call list;
  (* acquired lock, acquire site, locks held at the acquire *)
  mutable d_acquires : (lockid * Location.t * (lockid * Location.t) list) list;
}

and call = {
  c_raw : string;  (* canonical head name as written *)
  c_def : def option;  (* resolved target, when it is ours *)
  c_loc : Location.t;
  c_head : bool;  (* head position (false: by-name reference) *)
  c_raise : bool;  (* under a raise-like head: failure path only *)
  c_held : (lockid * Location.t) list;  (* locks held at the site *)
}

type unit_t = {
  u_src : string;
  u_mod : string;  (* canonical module name *)
  u_lib_scope : bool;
  u_str : Typedtree.structure;
  u_idents : (string, def) Hashtbl.t;  (* Ident.unique_name -> def *)
  mutable u_defs : def list;  (* reverse collection order *)
}

type universe = {
  units : unit_t list;
  defs : (string, def) Hashtbl.t;  (* canonical name -> def *)
  wrappers : (string, unit) Hashtbl.t;  (* dune wrapper module names *)
  mutable ufindings : finding list;
}

let ureport univ rule src (loc : Location.t) message =
  univ.ufindings <-
    {
      rule;
      file = src;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      message;
    }
    :: univ.ufindings

(* "Slc_cell__Harness" -> "Harness"; names without "__" are unchanged. *)
let after_dunder s =
  let n = String.length s in
  let rec find i best =
    if i + 1 >= n then best
    else if s.[i] = '_' && s.[i + 1] = '_' then find (i + 1) (Some (i + 2))
    else find (i + 1) best
  in
  match find 0 None with
  | Some j when j < n -> String.sub s j (n - j)
  | _ -> s

(* Canonical dotted name: per-component wrapped-name demangling, then
   leading wrapper components dropped ("Slc_cell.Harness.simulate" and
   "Slc_cell__Harness.simulate" both become "Harness.simulate"). *)
let canonical_name univ name =
  let comps = String.split_on_char '.' name in
  let comps =
    List.map
      (fun c ->
        let c =
          if c <> "" && c.[String.length c - 1] = '!' then
            String.sub c 0 (String.length c - 1)
          else c
        in
        after_dunder c)
      comps
  in
  let rec drop = function
    | c :: (_ :: _ as rest) when Hashtbl.mem univ.wrappers c -> drop rest
    | l -> l
  in
  String.concat "." (drop comps)

let is_identifier_head name =
  name <> ""
  && (match name.[0] with 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pass A: def collection.  Walks structure items, recursing through
   named modules, recursive modules, includes and module constraints;
   functor bodies are skipped (documented above). *)

let rec collect_defs univ u prefix (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
              let name = String.concat "." (prefix @ [ Ident.name id ]) in
              let is_fun =
                match vb.vb_expr.exp_desc with
                | Texp_function _ -> true
                | _ -> false
              in
              let is_mutex =
                match creation_head vb.vb_expr with
                | Some h -> normalize_path_name h = "Mutex.create"
                | None -> false
              in
              let d =
                {
                  d_name = name;
                  d_unit_mod = u.u_mod;
                  d_src = u.u_src;
                  d_loc = vb.vb_loc;
                  d_attrs = vb.vb_attributes;
                  d_body = vb.vb_expr;
                  d_is_fun = is_fun;
                  d_is_mutex = is_mutex;
                  d_calls = [];
                  d_acquires = [];
                }
              in
              Hashtbl.replace univ.defs name d;
              Hashtbl.replace u.u_idents (Ident.unique_name id) d;
              u.u_defs <- d :: u.u_defs
            | _ -> ())
          vbs
      | Tstr_module mb -> (
        match mb.mb_id with
        | Some id ->
          collect_defs_module univ u (prefix @ [ Ident.name id ]) mb.mb_expr
        | None -> ())
      | Tstr_recmodule mbs ->
        List.iter
          (fun (mb : Typedtree.module_binding) ->
            match mb.mb_id with
            | Some id ->
              collect_defs_module univ u (prefix @ [ Ident.name id ]) mb.mb_expr
            | None -> ())
          mbs
      | Tstr_include incl -> collect_defs_module univ u prefix incl.incl_mod
      | _ -> ())
    str.str_items

and collect_defs_module univ u prefix (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> collect_defs univ u prefix str
  | Tmod_constraint (me, _, _, _) -> collect_defs_module univ u prefix me
  | _ -> () (* functors, applications, aliases: opaque *)

(* ------------------------------------------------------------------ *)
(* Pass B: body walk.  Threads the set of locks held through the
   evaluation order, recording every call with a held-set snapshot and
   every Mutex acquisition with its held-at-acquire set. *)

let resolve_path univ u p =
  match p with
  | Path.Pident id -> Hashtbl.find_opt u.u_idents (Ident.unique_name id)
  | _ -> (
    let c = canonical_name univ (Path.name p) in
    match Hashtbl.find_opt univ.defs c with
    | Some d -> Some d
    | None -> Hashtbl.find_opt univ.defs (u.u_mod ^ "." ^ c))

let walk_def univ u (def : def) =
  let held : (lockid * Location.t) list ref = ref [] in
  let raise_depth = ref 0 in
  (* let-bound local mutexes, Ident.unique_name -> lock class *)
  let locals : (string, lockid) Hashtbl.t = Hashtbl.create 4 in
  let lockid_of (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt locals (Ident.unique_name id) with
      | Some l -> l
      | None -> (
        match Hashtbl.find_opt u.u_idents (Ident.unique_name id) with
        | Some d when d.d_is_mutex -> Lglobal d.d_name
        | _ -> Lopaque (def.d_name ^ "#" ^ Ident.name id)))
    | Texp_ident (p, _, _) -> (
      match resolve_path univ u p with
      | Some d when d.d_is_mutex -> Lglobal d.d_name
      | _ -> Lopaque (def.d_name ^ "#" ^ canonical_name univ (Path.name p)))
    | Texp_field (_, _, lbl) -> (
      match Types.get_desc lbl.lbl_res with
      | Tconstr (p, _, _) ->
        let tn = canonical_name univ (Path.name p) in
        let tn = if String.contains tn '.' then tn else u.u_mod ^ "." ^ tn in
        Lfield (tn ^ "." ^ lbl.lbl_name)
      | _ -> Lopaque (def.d_name ^ "#<field " ^ lbl.lbl_name ^ ">"))
    | _ -> Lopaque (def.d_name ^ "#<expr>")
  in
  let acquire lock loc =
    def.d_acquires <- (lock, loc, !held) :: def.d_acquires;
    if not (List.exists (fun (l, _) -> l = lock) !held) then
      held := (lock, loc) :: !held
  in
  let release lock = held := List.filter (fun (l, _) -> l <> lock) !held in
  let record ~head ~loc raw resolved =
    def.d_calls <-
      {
        c_raw = raw;
        c_def = resolved;
        c_loc = loc;
        c_head = head;
        c_raise = !raise_depth > 0;
        c_held = !held;
      }
      :: def.d_calls
  in
  let rec w (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      (* By-name reference to one of our functions: an R5/R7 edge. *)
      match resolve_path univ u p with
      | Some d when d.d_is_fun ->
        record ~head:false ~loc:e.exp_loc
          (canonical_name univ (Path.name p))
          (Some d)
      | _ -> ())
    | Texp_apply (head, args) -> apply e head args
    | Texp_function { cases; _ } ->
      (* The closure runs later, not under the locks held here; its
         calls and acquisitions still belong to this def (see the
         factory approximation above). *)
      let saved = !held in
      held := [];
      List.iter
        (fun (c : _ Typedtree.case) ->
          Option.iter w c.c_guard;
          w c.c_rhs)
        cases;
      held := saved
    | Texp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          (match (vb.vb_pat.pat_desc, creation_head vb.vb_expr) with
          | Tpat_var (id, _), Some h
            when normalize_path_name h = "Mutex.create" ->
            Hashtbl.replace locals (Ident.unique_name id)
              (Lglobal (def.d_name ^ "." ^ Ident.name id))
          | _ -> ());
          w vb.vb_expr)
        vbs;
      w body
    | Texp_ifthenelse (c, t, e_) ->
      w c;
      branch ((fun () -> w t) :: (match e_ with Some x -> [ (fun () -> w x) ] | None -> [ (fun () -> ()) ]))
    | Texp_match (scrut, cases, _) ->
      w scrut;
      branch
        (List.map
           (fun (c : _ Typedtree.case) () ->
             Option.iter w c.c_guard;
             w c.c_rhs)
           cases)
    | Texp_try (body, cases) ->
      branch
        ((fun () -> w body)
        :: List.map
             (fun (c : _ Typedtree.case) () ->
               Option.iter w c.c_guard;
               w c.c_rhs)
             cases)
    | Texp_sequence (a, b) ->
      w a;
      w b
    | Texp_open (_, body) -> w body
    | _ -> children e
  and children e =
    let it =
      {
        Tast_iterator.default_iterator with
        expr = (fun _ ce -> w ce);
      }
    in
    Tast_iterator.default_iterator.expr it e
  and branch arms =
    (* Each arm starts from the pre-branch held set; the post-branch
       set is the union of the arm exits (conservative for R6). *)
    let h0 = !held in
    let exits =
      List.map
        (fun arm ->
          held := h0;
          arm ();
          !held)
        arms
    in
    held :=
      List.fold_left
        (fun acc ex ->
          List.fold_left
            (fun acc (l, loc) ->
              if List.exists (fun (l', _) -> l' = l) acc then acc
              else (l, loc) :: acc)
            acc ex)
        [] exits
  and apply e head args =
    let raw =
      match head.exp_desc with
      | Texp_ident (p, _, _) -> Some (p, canonical_name univ (Path.name p))
      | _ -> None
    in
    match raw with
    | Some (_, "Mutex.lock") ->
      List.iter (fun (_, a) -> Option.iter w a) args;
      (match args with
      | [ (_, Some lk) ] -> acquire (lockid_of lk) e.exp_loc
      | _ -> ())
    | Some (_, "Mutex.unlock") -> (
      match args with
      | [ (_, Some lk) ] -> release (lockid_of lk)
      | _ -> ())
    | Some (_, "Mutex.protect") -> (
      (* Mutex.protect m (fun () -> body): body runs under m. *)
      match args with
      | [ (_, Some lk); (_, Some thunk) ] -> (
        let lock = lockid_of lk in
        acquire lock e.exp_loc;
        (match thunk.exp_desc with
        | Texp_function { cases = [ c ]; _ } -> w c.c_rhs
        | _ -> w thunk);
        release lock)
      | _ -> List.iter (fun (_, a) -> Option.iter w a) args)
    | Some (_, name) when name_is [ "Fun.protect"; "protect" ] name ->
      (* The thunk runs immediately, under the current held set — walk
         literal fun arguments inline instead of as fresh closures. *)
      List.iter
        (fun (_, a) ->
          Option.iter
            (fun (a : Typedtree.expression) ->
              match a.exp_desc with
              | Texp_function { cases = [ c ]; _ } -> w c.c_rhs
              | _ -> w a)
            a)
        args
    | Some (_, name) when raise_like name ->
      incr raise_depth;
      List.iter (fun (_, a) -> Option.iter w a) args;
      decr raise_depth
    | Some (p, name) ->
      if is_identifier_head name then
        record ~head:true ~loc:e.exp_loc name (resolve_path univ u p);
      List.iter (fun (_, a) -> Option.iter w a) args
    | None ->
      w head;
      List.iter (fun (_, a) -> Option.iter w a) args
  in
  w def.d_body;
  def.d_calls <- List.rev def.d_calls;
  def.d_acquires <- List.rev def.d_acquires

(* ------------------------------------------------------------------ *)
(* Universe construction *)

let build_universe (loaded : (string * string * bool * Typedtree.structure) list)
    =
  (* loaded: (src, cmt_modname, lib_scope, structure) *)
  let wrappers = Hashtbl.create 16 in
  Hashtbl.replace wrappers "Stdlib" ();
  List.iter
    (fun (_, modname, _, _) ->
      (* "Slc_cell__Harness" declares wrapper "Slc_cell";
         "Dune__exe__Slc_cli" declares "Dune__exe". *)
      let n = String.length modname in
      let rec last i best =
        if i + 1 >= n then best
        else if modname.[i] = '_' && modname.[i + 1] = '_' then last (i + 1) i
        else last (i + 1) best
      in
      match last 0 (-1) with
      | -1 -> ()
      | i -> Hashtbl.replace wrappers (String.sub modname 0 i) ())
    loaded;
  let univ = { units = []; defs = Hashtbl.create 256; wrappers; ufindings = [] } in
  let units =
    List.map
      (fun (src, modname, lib_scope, str) ->
        {
          u_src = src;
          u_mod = after_dunder modname;
          u_lib_scope = lib_scope;
          u_str = str;
          u_idents = Hashtbl.create 64;
          u_defs = [];
        })
      loaded
  in
  let univ = { univ with units } in
  List.iter (fun u -> collect_defs univ u [ u.u_mod ] u.u_str) units;
  List.iter
    (fun u ->
      u.u_defs <- List.rev u.u_defs;
      List.iter (walk_def univ u) u.u_defs)
    units;
  univ

let all_defs univ = List.concat_map (fun u -> u.u_defs) univ.units

(* Sorted, deduplicated dump of the resolved graph, for --dump-callgraph. *)
let callgraph_lines univ =
  let lines =
    List.concat_map
      (fun d ->
        List.map
          (fun c ->
            let target =
              match c.c_def with
              | Some t -> t.d_name
              | None -> c.c_raw ^ " (external)"
            in
            Printf.sprintf "%s -> %s%s" d.d_name target
              (if c.c_head then "" else " [by-name]"))
          d.d_calls)
      (all_defs univ)
  in
  List.sort_uniq String.compare lines

(* ================================================================== *)
(* R5: transitive hot-path allocation.

   BFS from every [@slc.hot] binding over resolved, non-failure-path
   calls to FUNCTION defs (value defs run at module init, not on the
   hot path).  A callee that is itself [@slc.hot] is traversed but not
   scanned (R3 already lints it directly); [@slc.alloc_ok "reason"]
   cuts the walk; everything else is scanned with the R3 allocation
   scanner and reported with the offending call chain. *)

let check_r5 univ =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let roots =
    List.filter (fun d -> has_attr "slc.hot" d.d_attrs) (all_defs univ)
    |> List.sort (fun a b -> String.compare a.d_name b.d_name)
  in
  List.iter (fun d -> Hashtbl.replace visited d.d_name ()) roots;
  let queue = Queue.create () in
  List.iter (fun d -> Queue.add (d, d.d_name) queue) roots;
  while not (Queue.is_empty queue) do
    let def, chain = Queue.pop queue in
    List.iter
      (fun c ->
        if not c.c_raise then
          match c.c_def with
          | Some callee
            when callee.d_is_fun && not (Hashtbl.mem visited callee.d_name) ->
            Hashtbl.replace visited callee.d_name ();
            let chain' = chain ^ " -> " ^ callee.d_name in
            if has_attr "slc.hot" callee.d_attrs then
              Queue.add (callee, chain') queue
            else if has_attr "slc.alloc_ok" callee.d_attrs then
              () (* reasoned escape (hygiene pass flags missing reasons) *)
            else begin
              let flag loc what =
                ureport univ R5 callee.d_src loc
                  (Printf.sprintf
                     "%s reached from [@slc.hot] via %s: %s allocates on \
                      the hot path — annotate the callee [@slc.hot] to \
                      lint it directly or [@slc.alloc_ok \"reason\"] to \
                      escape"
                     callee.d_name chain' what)
              in
              alloc_scan ~flag (r3_unwrap_params callee.d_body);
              Queue.add (callee, chain') queue
            end
          | _ -> ())
      def.d_calls
  done

(* ================================================================== *)
(* R6: lock order.

   Two analyses over the held-while-acquiring data collected by the
   body walk:

     1. a lock held across a blocking call — pool submission
        ([Parallel.map*], [Pool.run]) or simulation
        ([Harness.simulate*]) — directly or through a resolved call
        chain that reaches one;

     2. cycles in the lock-order graph, whose edges are "lock A held
        while acquiring lock B", both directly and interprocedurally
        (calling a function whose transitive acquisitions include B
        while holding A).

   Only head-position calls contribute (a function merely passed by
   name, e.g. [at_exit shutdown], is not called here — a documented
   blind spot shared with the higher-order approximation above). *)

let r6_blocking_names =
  [
    "Parallel.map";
    "Parallel.mapi";
    "Parallel.try_map";
    "Parallel.map_list";
    "Pool.run";
    "Parallel.Pool.run";
  ]

let r6_is_blocking_name n =
  name_is r6_blocking_names n || has_prefix "Harness.simulate" n

let r6_call_blocks c =
  r6_is_blocking_name c.c_raw
  || match c.c_def with Some d -> r6_is_blocking_name d.d_name | None -> false

let check_r6 univ =
  let defs = all_defs univ in
  (* Transitive acquisitions, memoized per def (cycle-safe: back edges
     see the partial empty entry). *)
  let tacq_memo : (string, lockid list) Hashtbl.t = Hashtbl.create 64 in
  let rec tacq d =
    match Hashtbl.find_opt tacq_memo d.d_name with
    | Some l -> l
    | None ->
      Hashtbl.add tacq_memo d.d_name [];
      let own = List.map (fun (l, _, _) -> l) d.d_acquires in
      let called =
        List.concat_map
          (fun c ->
            if c.c_head && not c.c_raise then
              match c.c_def with Some t -> tacq t | None -> []
            else [])
          d.d_calls
      in
      let all = List.sort_uniq compare (own @ called) in
      Hashtbl.replace tacq_memo d.d_name all;
      all
  in
  (* Shortest witness chain from a def to a blocking call, memoized. *)
  let wit_memo : (string, string list option) Hashtbl.t = Hashtbl.create 64 in
  let rec wit d =
    match Hashtbl.find_opt wit_memo d.d_name with
    | Some w -> w
    | None ->
      Hashtbl.add wit_memo d.d_name None;
      let direct =
        List.find_map
          (fun c ->
            if c.c_head && not c.c_raise && r6_call_blocks c then
              Some [ c.c_raw ]
            else None)
          d.d_calls
      in
      let w =
        match direct with
        | Some _ -> direct
        | None ->
          List.find_map
            (fun c ->
              if c.c_head && not c.c_raise then
                match c.c_def with
                | Some t -> (
                  match wit t with
                  | Some rest -> Some (t.d_name :: rest)
                  | None -> None)
                | None -> None
              else None)
            d.d_calls
      in
      Hashtbl.replace wit_memo d.d_name w;
      w
  in
  let suppressed d = has_attr "slc.lock_ok" d.d_attrs in
  (* --- locks held across blocking calls ------------------------- *)
  List.iter
    (fun d ->
      if not (suppressed d) then
        List.iter
          (fun c ->
            if (not c.c_raise) && c.c_held <> [] then begin
              let held_names =
                String.concat ", "
                  (List.rev_map (fun (l, _) -> lock_label l) c.c_held)
              in
              if r6_call_blocks c then
                ureport univ R6 d.d_src c.c_loc
                  (Printf.sprintf
                     "lock [%s] held across blocking call [%s] — pool \
                      submission and simulation must never run under a \
                      lock (annotate the function [@slc.lock_ok \
                      \"reason\"] if intended)"
                     held_names c.c_raw)
              else if c.c_head then
                match c.c_def with
                | Some t -> (
                  match wit t with
                  | Some chain ->
                    ureport univ R6 d.d_src c.c_loc
                      (Printf.sprintf
                         "lock [%s] held across call to [%s], which \
                          reaches a blocking call via %s"
                         held_names t.d_name
                         (String.concat " -> " (t.d_name :: chain)))
                  | None -> ())
                | None -> ()
            end)
          d.d_calls)
    defs;
  (* --- lock-order cycle detection -------------------------------- *)
  let edges : (lockid * lockid * Location.t * def) list ref = ref [] in
  let add_edge a b loc d = edges := (a, b, loc, d) :: !edges in
  List.iter
    (fun d ->
      if not (suppressed d) then begin
        List.iter
          (fun (lock, loc, held) ->
            List.iter (fun (h, _) -> add_edge h lock loc d) held)
          d.d_acquires;
        List.iter
          (fun c ->
            if c.c_head && (not c.c_raise) && c.c_held <> [] then
              match c.c_def with
              | Some t ->
                List.iter
                  (fun l ->
                    List.iter (fun (h, _) -> add_edge h l c.c_loc d) c.c_held)
                  (tacq t)
              | None -> ())
          d.d_calls
      end)
    defs;
  let edges =
    List.sort_uniq
      (fun (a, b, l1, _) (a2, b2, l2, _) ->
        compare
          (a, b, l1.Location.loc_start.pos_fname, l1.loc_start.pos_lnum)
          (a2, b2, l2.Location.loc_start.pos_fname, l2.loc_start.pos_lnum))
      !edges
  in
  (* Tarjan SCC over the lock nodes. *)
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun (a, b, _, _) ->
      Hashtbl.replace nodes a ();
      Hashtbl.replace nodes b ())
    edges;
  let succs l =
    List.filter_map (fun (a, b, _, _) -> if a = l then Some b else None) edges
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let comp_of = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let c = !ncomp in
      incr ncomp;
      let rec popc () =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          Hashtbl.replace comp_of w c;
          if w <> v then popc ()
        | [] -> ()
      in
      popc ()
    end
  in
  Hashtbl.iter (fun v () -> if not (Hashtbl.mem index v) then strong v) nodes;
  let comp_size = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ c ->
      Hashtbl.replace comp_size c
        (1 + Option.value ~default:0 (Hashtbl.find_opt comp_size c)))
    comp_of;
  List.iter
    (fun (a, b, loc, d) ->
      let ca = Hashtbl.find_opt comp_of a and cb = Hashtbl.find_opt comp_of b in
      let cyclic =
        a = b
        || (ca = cb
           && Option.fold ~none:false
                ~some:(fun c ->
                  Option.value ~default:0 (Hashtbl.find_opt comp_size c) > 1)
                ca)
      in
      if cyclic then begin
        let members =
          match ca with
          | Some c ->
            Hashtbl.fold
              (fun l c' acc -> if c' = c then lock_label l :: acc else acc)
              comp_of []
            |> List.sort String.compare
          | None -> [ lock_label a ]
        in
        ureport univ R6 d.d_src loc
          (Printf.sprintf
             "lock-order cycle: acquiring [%s] while holding [%s] — \
              cycle through locks {%s} can deadlock (pick one global \
              order or annotate [@slc.lock_ok \"reason\"])"
             (lock_label b) (lock_label a)
             (String.concat ", " members))
      end)
    edges

(* ================================================================== *)
(* R7: determinism of the bitwise-contract result paths.

   BFS from the contract entry points over resolved calls AND by-name
   references (a function handed to [List.map] still runs on the
   result path); [@slc.det_ok "reason"] on a def cuts its subtree, and
   the same annotation on an expression (or inner let) suppresses just
   that subtree.  Each reachable def's body is scanned for Hashtbl
   iteration, wall clocks / self-seeded RNG, and float physical
   equality. *)

let r7_builtin_roots =
  [ "Statistical.extract_population"; "Sdag.forward_compiled"; "Belief.propagate" ]

let r7_is_root d =
  name_is r7_builtin_roots d.d_name
  || has_prefix "Store." d.d_name
  || has_attr "slc.det_root" d.d_attrs

let r7_clock_names = [ "Random.self_init"; "Unix.gettimeofday"; "Sys.time" ]

let exp_is_float (e : Typedtree.expression) =
  match Types.get_desc e.exp_type with
  | Tconstr (p, [], _) -> Path.name p = "float"
  | _ -> false

let det_scan univ (def : def) ~chain =
  let suppress = ref 0 in
  let raise_d = ref 0 in
  let flag loc what =
    ureport univ R7 def.d_src loc
      (Printf.sprintf
         "%s in %s — reachable from bitwise-contract root via %s \
          (annotate [@slc.det_ok \"reason\"] if this cannot affect \
          results)"
         what def.d_name chain)
  in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    let annot = find_annot "slc.det_ok" e.exp_attributes in
    let sup = annot <> No_annot in
    if sup then incr suppress;
    let raising =
      match e.exp_desc with
      | Texp_apply (head, _) -> (
        match head.exp_desc with
        | Texp_ident (p, _, _) ->
          raise_like (canonical_name univ (Path.name p))
        | _ -> false)
      | _ -> false
    in
    if raising then incr raise_d;
    (if !suppress = 0 && !raise_d = 0 then
       match e.exp_desc with
       | Texp_apply (head, args) -> (
         match head.exp_desc with
         | Texp_ident (p, _, _) -> (
           match canonical_name univ (Path.name p) with
           | ("Hashtbl.fold" | "Hashtbl.iter") as n ->
             flag e.exp_loc
               (Printf.sprintf "iteration-order-dependent [%s]" n)
           | n when name_is r7_clock_names n ->
             flag e.exp_loc (Printf.sprintf "nondeterministic [%s]" n)
           | ("==" | "!=") as op
             when List.exists
                    (fun (_, a) ->
                      match a with Some a -> exp_is_float a | None -> false)
                    args ->
             flag e.exp_loc
               (Printf.sprintf "physical equality [%s] on floats" op)
           | _ -> ())
         | _ -> ())
       | _ -> ());
    default.expr sub e;
    if raising then decr raise_d;
    if sup then decr suppress
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let sup = find_annot "slc.det_ok" vb.vb_attributes <> No_annot in
    if sup then incr suppress;
    default.value_binding sub vb;
    if sup then decr suppress
  in
  let it = { default with expr; value_binding } in
  it.expr it def.d_body

let check_r7 univ =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let roots =
    List.filter r7_is_root (all_defs univ)
    |> List.sort (fun a b -> String.compare a.d_name b.d_name)
  in
  let queue = Queue.create () in
  List.iter
    (fun d ->
      if not (Hashtbl.mem visited d.d_name) then begin
        Hashtbl.replace visited d.d_name ();
        if has_attr "slc.det_ok" d.d_attrs then ()
        else begin
          det_scan univ d ~chain:d.d_name;
          Queue.add (d, d.d_name) queue
        end
      end)
    roots;
  while not (Queue.is_empty queue) do
    let def, chain = Queue.pop queue in
    List.iter
      (fun c ->
        if not c.c_raise then
          match c.c_def with
          | Some callee when not (Hashtbl.mem visited callee.d_name) ->
            Hashtbl.replace visited callee.d_name ();
            if has_attr "slc.det_ok" callee.d_attrs then ()
            else begin
              let chain' = chain ^ " -> " ^ callee.d_name in
              det_scan univ callee ~chain:chain';
              Queue.add (callee, chain') queue
            end
          | _ -> ())
      def.d_calls
  done

(* Annotation hygiene for the interprocedural escapes: a reason string
   is required wherever one is required for R1–R4. *)
let check_interproc_annotations univ =
  List.iter
    (fun d ->
      let need rule name =
        if find_annot name d.d_attrs = Unreasoned then
          ureport univ rule d.d_src d.d_loc
            (Printf.sprintf "[@%s] annotation needs a reason string" name)
      in
      need R5 "slc.alloc_ok";
      need R6 "slc.lock_ok";
      need R7 "slc.det_ok")
    (all_defs univ)

(* ================================================================== *)
(* Driver *)

let in_lib_scope src =
  has_prefix "lib/" src && not (has_prefix "lib/num/" src)

(* [treat_as_lib] forces R1 scope onto sources OUTSIDE lib/ (bin/,
   tools/, fixture modules); it never drags lib/num into R1 — that
   exclusion is deliberate and permanent. *)
let effective_lib_scope ~treat_as_lib src =
  in_lib_scope src || (treat_as_lib && not (has_prefix "lib/" src))

let lint_structure ?(rules = all_rules) ~src ~lib_scope
    (str : Typedtree.structure) =
  let ctx = { src; lib_scope; findings = [] } in
  let on r = List.mem r rules in
  if on R1 then check_r1 ctx str;
  if on R2 then begin
    check_r2_structure ctx str;
    check_r2_escapes ctx str
  end;
  if on R3 then check_r3 ctx str;
  if on R4 then check_r4 ctx str;
  List.sort compare_finding ctx.findings

let interproc_findings ?(rules = all_rules) univ =
  let on r = List.mem r rules in
  if on R5 then check_r5 univ;
  if on R6 then check_r6 univ;
  if on R7 then check_r7 univ;
  if on R5 || on R6 || on R7 then check_interproc_annotations univ;
  let keep f = List.mem f.rule rules in
  List.filter keep univ.ufindings

let read_unit path =
  let cmt = Cmt_format.read_cmt path in
  let src =
    match cmt.cmt_sourcefile with Some s -> s | None -> Filename.basename path
  in
  match cmt.cmt_annots with
  | Cmt_format.Implementation str -> Some (src, cmt.cmt_modname, str)
  | _ -> None

(* Lint one cmt file: R1–R4 per structure plus R5–R7 over a
   single-unit universe (calls into other units stay unresolved, which
   is the conservative treatment).  Returns [] for interfaces and
   partial implementations.  Used by the fixture tests and by direct
   .cmt arguments to the CLI. *)
let lint_cmt ?(treat_as_lib = false) ?(rules = all_rules) path =
  match read_unit path with
  | None -> []
  | Some (src, modname, str) ->
    let lib_scope = effective_lib_scope ~treat_as_lib src in
    let per_unit = lint_structure ~rules ~src ~lib_scope str in
    let univ = build_universe [ (src, modname, lib_scope, str) ] in
    let inter = interproc_findings ~rules univ in
    List.sort compare_finding (List.rev_append inter per_unit)

(* ------------------------------------------------------------------ *)
(* cmt discovery: walk _build/default for *.cmt whose recorded source
   file falls under one of the requested prefixes. *)

let rec walk dir acc =
  match Sys.readdir dir with
  | entries ->
    Array.fold_left
      (fun acc name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then walk p acc
        else if Filename.check_suffix name ".cmt" then p :: acc
        else acc)
      acc entries
  | exception Sys_error _ -> acc

let source_matches prefixes src =
  List.exists
    (fun p ->
      let p = if Filename.check_suffix p "/" then p else p ^ "/" in
      src = String.sub p 0 (String.length p - 1)
      || (String.length src >= String.length p && String.sub src 0 (String.length p) = p))
    prefixes

let load_tree ~build_root prefixes =
  (* Accept either a source checkout (scan its _build/default) or a
     position already inside the compiled tree (dune actions run in
     _build/default). *)
  let candidate = Filename.concat build_root (Filename.concat "_build" "default") in
  let root =
    if Sys.file_exists candidate && Sys.is_directory candidate then candidate
    else build_root
  in
  if not (Sys.file_exists root && Sys.is_directory root) then
    Error (Printf.sprintf "no build tree at %s (run `dune build @check` first)" root)
  else begin
    let cmts = walk root [] in
    let seen_src = Hashtbl.create 64 in
    let units =
      List.fold_left
        (fun acc cmt_path ->
          match read_unit cmt_path with
          | exception _ -> acc (* stale or foreign cmt: not ours to judge *)
          | None -> acc
          | Some (src, modname, str) ->
            if source_matches prefixes src && not (Hashtbl.mem seen_src src)
            then begin
              Hashtbl.add seen_src src ();
              (src, modname, str) :: acc
            end
            else acc)
        [] cmts
    in
    (* Deterministic unit order regardless of readdir order. *)
    Ok
      (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) units)
  end

let lint_tree ~build_root ~treat_as_lib ?(rules = all_rules) prefixes =
  match load_tree ~build_root prefixes with
  | Error _ as e -> e
  | Ok units ->
    let per_unit =
      List.concat_map
        (fun (src, _, str) ->
          let lib_scope = effective_lib_scope ~treat_as_lib src in
          lint_structure ~rules ~src ~lib_scope str)
        units
    in
    let univ =
      build_universe
        (List.map
           (fun (src, modname, str) ->
             (src, modname, effective_lib_scope ~treat_as_lib src, str))
           units)
    in
    let inter = interproc_findings ~rules univ in
    Ok
      ( List.sort compare_finding (List.rev_append inter per_unit),
        List.length units )

(* Resolved call graph of a build tree (or of single cmts), one
   "caller -> callee" line per edge, for --dump-callgraph. *)
let callgraph_tree ~build_root prefixes =
  match load_tree ~build_root prefixes with
  | Error _ as e -> e
  | Ok units ->
    let univ =
      build_universe
        (List.map (fun (src, modname, str) -> (src, modname, true, str)) units)
    in
    Ok (callgraph_lines univ)

let callgraph_cmt path =
  match read_unit path with
  | None -> []
  | Some (src, modname, str) ->
    callgraph_lines (build_universe [ (src, modname, true, str) ])

(* ------------------------------------------------------------------ *)
(* Baseline: one finding per line, [rule|file|line|message].  Line
   numbers are part of the key on purpose — a baseline is a temporary
   debt ledger, and code motion around a suppressed finding should
   resurface it for a fresh look. *)

let finding_key f =
  Printf.sprintf "%s|%s|%d|%s" (rule_id f.rule) f.file f.line f.message

let load_baseline path =
  if not (Sys.file_exists path) then Ok []
  else begin
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      let keys = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then keys := line :: !keys
         done
       with End_of_file -> ());
      close_in ic;
      Ok (List.rev !keys)
  end

let save_baseline path findings =
  let oc = open_out path in
  output_string oc
    "# slc_lint baseline: known findings suppressed from CI.\n\
     # Regenerate with: slc_lint --update-baseline …  (keep this empty)\n";
  List.iter (fun f -> output_string oc (finding_key f ^ "\n")) findings;
  close_out oc

(* Baseline entries that no longer fire: either the debt was paid (the
   entry should be deleted) or the code moved (the finding should get a
   fresh look).  --forbid-stale turns these into a failure. *)
let stale_keys ~known findings =
  let live = List.map finding_key findings in
  List.filter (fun k -> not (List.mem k live)) known

let pp_finding oc f =
  Printf.fprintf oc "%s:%d:%d: [%s %s] %s\n" f.file f.line f.col (rule_id f.rule)
    (rule_name f.rule) f.message

(* ------------------------------------------------------------------ *)
(* JSON findings report (--json).  Hand-rolled: the linter links only
   compiler-libs, and the schema is four flat lists. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_finding f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"name\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\
     \"message\":\"%s\"}"
    (rule_id f.rule) (rule_name f.rule) (json_escape f.file) f.line f.col
    (json_escape f.message)

let write_json ~files_scanned ~fresh ~baselined ~stale oc =
  let arr xs = "[" ^ String.concat "," xs ^ "]" in
  output_string oc
    (Printf.sprintf
       "{\"files_scanned\":%d,\"counts\":{\"fresh\":%d,\"baselined\":%d,\
        \"stale_baseline\":%d},\"fresh\":%s,\"baselined\":%s,\
        \"stale_baseline\":%s}\n"
       files_scanned (List.length fresh) (List.length baselined)
       (List.length stale)
       (arr (List.map json_of_finding fresh))
       (arr (List.map json_of_finding baselined))
       (arr (List.map (fun k -> "\"" ^ json_escape k ^ "\"") stale)))
