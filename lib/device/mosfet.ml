type polarity = Nmos | Pmos

type params = {
  polarity : polarity;
  w : float;
  l : float;
  vt : float;
  kp : float;
  alpha : float;
  theta : float;
  vsat_frac : float;
  lambda : float;
  cg : float;
  cj : float;
}

let scale_width p f =
  if f <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Mosfet.scale_width" "factor must be > 0";
  { p with w = p.w *. f }

let t_ref_kelvin = 298.15

let at_temperature p ~celsius =
  let t = celsius +. 273.15 in
  if t <= 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Mosfet.at_temperature" "below absolute zero";
  let ratio = t /. t_ref_kelvin in
  {
    p with
    kp = p.kp *. (ratio ** -1.3);
    vt = p.vt -. (1e-3 *. (t -. t_ref_kelvin));
    theta = p.theta *. ratio;
  }

type eval = { id : float; d_vg : float; d_vd : float; d_vs : float }

let vdsat_floor = 0.02

(* Softplus overdrive and its derivative (a numerically safe sigmoid). *)
let overdrive p vgs =
  let x = (vgs -. p.vt) /. p.theta in
  if x > 35.0 then (vgs -. p.vt, 1.0)
  else if x < -35.0 then (p.theta *. exp x, exp x)
  else begin
    let e = exp x in
    (p.theta *. log1p e, e /. (1.0 +. e))
  end

(* Intrinsic NMOS-convention current for vds >= 0, with partials w.r.t.
   vgs and vds.  [vov ** alpha] is derived from the [alpha - 1] power
   (needed for the derivative anyway) with one multiply, halving the
   number of [pow] calls on the simulator hot path. *)
let intrinsic p vgs vds =
  let vov, dvov = overdrive p vgs in
  let wl = p.w /. p.l in
  let vp = vov ** (p.alpha -. 1.0) in
  let idsat = p.kp *. wl *. (vp *. vov) in
  let d_idsat = p.kp *. wl *. p.alpha *. vp *. dvov in
  let vdsat = (p.vsat_frac *. vov) +. vdsat_floor in
  let d_vdsat = p.vsat_frac *. dvov in
  let u = vds /. vdsat in
  let t = tanh u in
  let sech2 = 1.0 -. (t *. t) in
  let clm = 1.0 +. (p.lambda *. vds) in
  let id = idsat *. t *. clm in
  let gm =
    (d_idsat *. t *. clm)
    +. (idsat *. sech2 *. (-.u /. vdsat) *. d_vdsat *. clm)
  in
  let gds = (idsat *. sech2 /. vdsat *. clm) +. (idsat *. t *. p.lambda) in
  (id, gm, gds)

let channel_current p ~vgs ~vds =
  if vds < 0.0 then Slc_obs.Slc_error.invalid_input ~site:"Mosfet.channel_current" "vds must be >= 0";
  let id, _, _ = intrinsic p vgs vds in
  id

(* NMOS-convention terminal evaluation with source/drain symmetry. *)
let eval_nmos p ~vg ~vd ~vs =
  if vd >= vs then begin
    let id, gm, gds = intrinsic p (vg -. vs) (vd -. vs) in
    { id; d_vg = gm; d_vd = gds; d_vs = -.(gm +. gds) }
  end
  else begin
    (* Terminals swap roles: vs acts as drain.  The current into the
       labelled drain is the negative of the swapped-channel current. *)
    let id, gm, gds = intrinsic p (vg -. vd) (vs -. vd) in
    { id = -.id; d_vg = -.gm; d_vd = gm +. gds; d_vs = -.gds }
  end

let eval p ~vg ~vd ~vs =
  match p.polarity with
  | Nmos -> eval_nmos p ~vg ~vd ~vs
  | Pmos ->
    (* Mirror all voltages; id_p(v) = -id_n(-v), so the partial
       derivatives carry over with their sign preserved. *)
    let e = eval_nmos p ~vg:(-.vg) ~vd:(-.vd) ~vs:(-.vs) in
    { id = -.e.id; d_vg = e.d_vg; d_vd = e.d_vd; d_vs = e.d_vs }

(* Allocation-free evaluation for the simulator inner loop.  All fields
   are floats, so the record is a flat float block and the stores below
   never allocate.  The arithmetic is kept in exactly the same order as
   [overdrive]/[intrinsic]/[eval_nmos] above so both paths agree
   bit-for-bit. *)
type eval_buf = {
  mutable b_id : float;
  mutable b_vg : float;
  mutable b_vd : float;
  mutable b_vs : float;
}

let make_eval_buf () = { b_id = 0.0; b_vg = 0.0; b_vd = 0.0; b_vs = 0.0 }

(* Writes (id, gm, gds) into (b_id, b_vg, b_vd); b_vs is untouched.  The
   overdrive branch stashes its pair in the buffer instead of returning
   a tuple so the whole call chain stays allocation-free without
   depending on the inliner. *)
let[@inline] [@slc.hot] intrinsic_into p vgs vds buf =
  let x = (vgs -. p.vt) /. p.theta in
  (if x > 35.0 then begin
     buf.b_vg <- vgs -. p.vt;
     buf.b_vd <- 1.0
   end
   else if x < -35.0 then begin
     let e = exp x in
     buf.b_vg <- p.theta *. e;
     buf.b_vd <- e
   end
   else begin
     let e = exp x in
     buf.b_vg <- p.theta *. log1p e;
     buf.b_vd <- e /. (1.0 +. e)
   end);
  let vov = buf.b_vg and dvov = buf.b_vd in
  let wl = p.w /. p.l in
  let vp = vov ** (p.alpha -. 1.0) in
  let idsat = p.kp *. wl *. (vp *. vov) in
  let d_idsat = p.kp *. wl *. p.alpha *. vp *. dvov in
  let vdsat = (p.vsat_frac *. vov) +. vdsat_floor in
  let d_vdsat = p.vsat_frac *. dvov in
  let u = vds /. vdsat in
  let t = tanh u in
  let sech2 = 1.0 -. (t *. t) in
  let clm = 1.0 +. (p.lambda *. vds) in
  let id = idsat *. t *. clm in
  let gm =
    (d_idsat *. t *. clm)
    +. (idsat *. sech2 *. (-.u /. vdsat) *. d_vdsat *. clm)
  in
  let gds = (idsat *. sech2 /. vdsat *. clm) +. (idsat *. t *. p.lambda) in
  buf.b_id <- id;
  buf.b_vg <- gm;
  buf.b_vd <- gds

let[@inline] [@slc.hot] eval_nmos_into p ~vg ~vd ~vs buf =
  if vd >= vs then begin
    intrinsic_into p (vg -. vs) (vd -. vs) buf;
    buf.b_vs <- -.(buf.b_vg +. buf.b_vd)
  end
  else begin
    intrinsic_into p (vg -. vd) (vs -. vd) buf;
    let gm = buf.b_vg and gds = buf.b_vd in
    buf.b_id <- -.buf.b_id;
    buf.b_vg <- -.gm;
    buf.b_vd <- gm +. gds;
    buf.b_vs <- -.gds
  end

let[@inline] [@slc.hot] eval_into p ~vg ~vd ~vs buf =
  match p.polarity with
  | Nmos -> eval_nmos_into p ~vg ~vd ~vs buf
  | Pmos ->
    eval_nmos_into p ~vg:(-.vg) ~vd:(-.vd) ~vs:(-.vs) buf;
    buf.b_id <- -.buf.b_id

let idsat p ~vdd =
  let id, _, _ = intrinsic p vdd vdd in
  id

let ieff p ~vdd =
  let ih, _, _ = intrinsic p vdd (vdd /. 2.0) in
  let il, _, _ = intrinsic p (vdd /. 2.0) vdd in
  0.5 *. (ih +. il)

let cgate p = p.cg *. p.w

let cjunction p = p.cj *. p.w
