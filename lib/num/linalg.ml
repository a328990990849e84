exception Singular of string

let cholesky a =
  if not (Mat.is_symmetric ~tol:1e-8 a) then
    raise (Singular "cholesky: matrix not symmetric");
  let n = Mat.rows a in
  let l = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if !s <= 0.0 then raise (Singular "cholesky: not positive definite");
        Mat.set l i i (sqrt !s)
      end
      else Mat.set l i j (!s /. Mat.get l j j)
    done
  done;
  l

let lower_solve l b =
  let n = Mat.rows l in
  if Array.length b <> n then invalid_arg "Linalg.lower_solve: size mismatch";
  let x = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.get l i j *. x.(j))
    done;
    let d = Mat.get l i i in
    if d = 0.0 then raise (Singular "lower_solve: zero diagonal");
    x.(i) <- !s /. d
  done;
  x

let upper_solve u b =
  let n = Mat.rows u in
  if Array.length b <> n then invalid_arg "Linalg.upper_solve: size mismatch";
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.get u i j *. x.(j))
    done;
    let d = Mat.get u i i in
    if d = 0.0 then raise (Singular "upper_solve: zero diagonal");
    x.(i) <- !s /. d
  done;
  x

let cholesky_solve l b =
  let y = lower_solve l b in
  upper_solve (Mat.transpose l) y

let solve_spd a b = cholesky_solve (cholesky a) b

(* Allocation-free variants for workspace-reusing callers (the LM
   optimizer).  They replicate the floating-point operation order of
   [cholesky] / [cholesky_solve] exactly, so results are bitwise
   identical to the allocating forms. *)

let[@slc.hot] cholesky_into a l =
  if not (Mat.is_symmetric ~tol:1e-8 a) then
    raise (Singular "cholesky: matrix not symmetric");
  let n = Mat.rows a in
  if Mat.rows l <> n || Mat.cols l <> n then
    invalid_arg "Linalg.cholesky_into: dimension mismatch";
  (* Only the lower triangle of [l] is written (and later read); any
     stale upper-triangle entries in a reused buffer are harmless. *)
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        s := !s -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if !s <= 0.0 then raise (Singular "cholesky: not positive definite");
        Mat.set l i i (sqrt !s)
      end
      else Mat.set l i j (!s /. Mat.get l j j)
    done
  done

let[@slc.hot] cholesky_solve_into l b ~y ~x =
  let n = Mat.rows l in
  if Array.length b <> n || Array.length y <> n || Array.length x <> n then
    invalid_arg "Linalg.cholesky_solve_into: size mismatch";
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.get l i j *. y.(j))
    done;
    let d = Mat.get l i i in
    if d = 0.0 then raise (Singular "lower_solve: zero diagonal");
    y.(i) <- !s /. d
  done;
  (* Back substitution against lᵀ, reading the lower triangle directly
     — same element order as [upper_solve (transpose l)]. *)
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.get l j i *. x.(j))
    done;
    let d = Mat.get l i i in
    if d = 0.0 then raise (Singular "upper_solve: zero diagonal");
    x.(i) <- !s /. d
  done

let spd_inverse a =
  let n = Mat.rows a in
  let l = cholesky a in
  let inv = Mat.create n n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let x = cholesky_solve l e in
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  (* Symmetrize to remove round-off asymmetry. *)
  Mat.sym_part inv

(* Workspace variant of [spd_inverse]: factorization into [l], one
   unit-vector solve per column through [e]/[y], columns written
   straight into [out], then an in-place symmetrization.  Every
   floating-point operation matches [spd_inverse] (IEEE addition is
   commutative, so folding the (i,j)/(j,i) pair once is bitwise the
   [sym_part] result), so results are bitwise identical. *)
let[@slc.hot] spd_inverse_into a ~l ~e ~y ~out =
  let n = Mat.rows a in
  if
    Mat.rows l <> n || Mat.cols l <> n || Mat.rows out <> n
    || Mat.cols out <> n
    || Array.length e <> n
    || Array.length y <> n
  then invalid_arg "Linalg.spd_inverse_into: dimension mismatch";
  cholesky_into a l;
  for j = 0 to n - 1 do
    Array.fill e 0 n 0.0;
    e.(j) <- 1.0;
    (* Forward substitution (same element order as [lower_solve]). *)
    for i = 0 to n - 1 do
      let s = ref e.(i) in
      for k = 0 to i - 1 do
        s := !s -. (Mat.get l i k *. y.(k))
      done;
      let d = Mat.get l i i in
      if d = 0.0 then raise (Singular "lower_solve: zero diagonal");
      y.(i) <- !s /. d
    done;
    (* Back substitution against lᵀ, straight into column j of [out]
       (same element order as [upper_solve (transpose l)]). *)
    for i = n - 1 downto 0 do
      let s = ref y.(i) in
      for k = i + 1 to n - 1 do
        s := !s -. (Mat.get l k i *. Mat.get out k j)
      done;
      let d = Mat.get l i i in
      if d = 0.0 then raise (Singular "upper_solve: zero diagonal");
      Mat.set out i j (!s /. d)
    done
  done;
  (* In-place [sym_part]. *)
  for i = 0 to n - 1 do
    for j = 0 to i do
      let v = 0.5 *. (Mat.get out i j +. Mat.get out j i) in
      Mat.set out i j v;
      Mat.set out j i v
    done
  done

let spd_log_det a =
  let l = cholesky a in
  let n = Mat.rows a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. log (Mat.get l i i)
  done;
  2.0 *. !acc

type lu = { lu_mat : Mat.t; perm : int array; sign : float }

let[@slc.hot] lu_factor_in_place a perm =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Linalg.lu_factor_in_place: not square";
  if Array.length perm <> n then
    invalid_arg "Linalg.lu_factor_in_place: permutation size mismatch";
  let m = Mat.data a in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k. *)
    let piv = ref k in
    let best = ref (Float.abs m.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs m.((i * n) + k) in
      if v > !best then begin
        best := v;
        piv := i
      end
    done;
    if !best < 1e-300 then raise (Singular "lu_factor_in_place: singular matrix");
    if !piv <> k then begin
      let rk = k * n and rp = !piv * n in
      for j = 0 to n - 1 do
        let t = m.(rk + j) in
        m.(rk + j) <- m.(rp + j);
        m.(rp + j) <- t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t;
      sign := -. !sign
    end;
    let rk = k * n in
    let pivot = m.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let f = m.(ri + k) /. pivot in
      m.(ri + k) <- f;
      for j = k + 1 to n - 1 do
        m.(ri + j) <- m.(ri + j) -. (f *. m.(rk + j))
      done
    done
  done;
  !sign

let[@slc.hot] lu_solve_in_place a perm ~b ~x =
  let n = Mat.rows a in
  if Array.length b <> n || Array.length x <> n || Array.length perm <> n then
    invalid_arg "Linalg.lu_solve_in_place: size mismatch";
  let m = Mat.data a in
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* Forward substitution with unit lower part. *)
  for i = 0 to n - 1 do
    let ri = i * n in
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (m.(ri + j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* Back substitution with the upper part. *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (m.(ri + j) *. x.(j))
    done;
    x.(i) <- !s /. m.(ri + i)
  done

let lu_decompose a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Linalg.lu_decompose: not square";
  let m = Mat.copy a in
  let perm = Array.make n 0 in
  let sign =
    try lu_factor_in_place m perm
    with Singular _ -> raise (Singular "lu_decompose: singular matrix")
  in
  { lu_mat = m; perm; sign }

let lu_solve { lu_mat; perm; _ } b =
  let n = Mat.rows lu_mat in
  if Array.length b <> n then invalid_arg "Linalg.lu_solve: size mismatch";
  let x = Array.make n 0.0 in
  lu_solve_in_place lu_mat perm ~b ~x;
  x

let lu_det { lu_mat; sign; _ } =
  let n = Mat.rows lu_mat in
  let acc = ref sign in
  for i = 0 to n - 1 do
    acc := !acc *. Mat.get lu_mat i i
  done;
  !acc

let solve a b = lu_solve (lu_decompose a) b

let inverse a =
  let n = Mat.rows a in
  let f = lu_decompose a in
  let inv = Mat.create n n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let x = lu_solve f e in
    for i = 0 to n - 1 do
      Mat.set inv i j x.(i)
    done
  done;
  inv

let det a = lu_det (lu_decompose a)

let solve_least_squares a b =
  if Mat.rows a < Mat.cols a then
    invalid_arg "Linalg.solve_least_squares: underdetermined system";
  let at = Mat.transpose a in
  let ata = Mat.mul at a in
  let scale = Float.max 1e-30 (Mat.trace ata /. float_of_int (Mat.cols a)) in
  let ata = Mat.add_ridge ata (1e-12 *. scale) in
  let atb = Mat.mul_vec at b in
  solve_spd ata atb

(* Scaling-and-squaring expm with a (6,6) Pade approximant: accurate to
   double precision for the modest matrices used in tests. *)
let expm a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Linalg.expm: not square";
  (* Scale so that the 1-norm is below ~0.5. *)
  let norm1 =
    let best = ref 0.0 in
    for j = 0 to n - 1 do
      let col = ref 0.0 in
      for i = 0 to n - 1 do
        col := !col +. Float.abs (Mat.get a i j)
      done;
      best := Float.max !best !col
    done;
    !best
  in
  let s = max 0 (int_of_float (Float.ceil (Float.log2 (Float.max 1e-300 norm1 /. 0.5)))) in
  let a_scaled = Mat.scale (1.0 /. (2.0 ** float_of_int s)) a in
  (* (6,6) Pade: p(x) = sum c_k x^k with c_k = (12-k)! 6! / (12! k! (6-k)!). *)
  let c =
    [| 1.0; 0.5; 5.0 /. 44.0; 1.0 /. 66.0; 1.0 /. 792.0; 1.0 /. 15840.0;
       1.0 /. 665280.0 |]
  in
  let id = Mat.identity n in
  let powers = Array.make 7 id in
  for k = 1 to 6 do
    powers.(k) <- Mat.mul powers.(k - 1) a_scaled
  done;
  let p = ref (Mat.scale c.(0) id) and q = ref (Mat.scale c.(0) id) in
  for k = 1 to 6 do
    let term = Mat.scale c.(k) powers.(k) in
    p := Mat.add !p term;
    q := Mat.add !q (Mat.scale (if k mod 2 = 0 then 1.0 else -1.0) term)
  done;
  (* exp(A_scaled) ~ q^-1 p, then square s times. *)
  let e = ref (Mat.mul (inverse !q) !p) in
  for _ = 1 to s do
    e := Mat.mul !e !e
  done;
  !e
