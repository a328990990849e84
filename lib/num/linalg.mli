(** Direct dense linear algebra: Cholesky and LU factorizations, solves,
    inverses.  Sized for the small systems this project needs (circuit
    Jacobians and 4x4 parameter covariances), not for large-scale work. *)

exception Singular of string
(** Raised when a factorization meets a (numerically) singular or, for
    Cholesky, non-positive-definite matrix. *)

val cholesky : Mat.t -> Mat.t
(** [cholesky a] returns the lower-triangular [l] with [l * l^T = a] for a
    symmetric positive-definite [a].  Raises {!Singular} otherwise. *)

val cholesky_solve : Mat.t -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [l l^T x = b] given the Cholesky factor
    [l]. *)

val solve_spd : Mat.t -> Vec.t -> Vec.t
(** [solve_spd a b] solves [a x = b] for symmetric positive-definite [a]. *)

val cholesky_into : Mat.t -> Mat.t -> unit
(** [cholesky_into a l] is {!cholesky} into the caller-owned square
    matrix [l] (only the lower triangle is written; stale upper-triangle
    entries of a reused buffer are ignored by the solves below).
    Bitwise identical to [cholesky].  Allocation-free. *)

val cholesky_solve_into : Mat.t -> Vec.t -> y:Vec.t -> x:Vec.t -> unit
(** [cholesky_solve_into l b ~y ~x] is {!cholesky_solve} into the
    caller-owned intermediate [y] and solution [x] (neither may alias
    [b]).  Bitwise identical to the allocating form.  Allocation-free. *)

val spd_inverse : Mat.t -> Mat.t
(** Inverse of a symmetric positive-definite matrix via Cholesky. *)

val spd_inverse_into : Mat.t -> l:Mat.t -> e:Vec.t -> y:Vec.t -> out:Mat.t -> unit
(** [spd_inverse_into a ~l ~e ~y ~out] is {!spd_inverse} into the
    caller-owned factor buffer [l], scratch vectors [e]/[y] (length
    [rows a]) and result [out] (none may alias [a]).  Bitwise identical
    to the allocating form.  Allocation-free — the workspace primitive
    behind the residual-BP inner loop (see {!Slc_core.Belief}). *)

val spd_log_det : Mat.t -> float
(** Log-determinant of a symmetric positive-definite matrix. *)

type lu
(** LU factorization with partial pivoting. *)

val lu_decompose : Mat.t -> lu
(** Raises {!Singular} on singular input. *)

val lu_solve : lu -> Vec.t -> Vec.t

val lu_factor_in_place : Mat.t -> int array -> float
(** [lu_factor_in_place a perm] overwrites the square matrix [a] with
    its packed LU factors (unit lower + upper) using partial pivoting,
    writes the row permutation into the caller-owned [perm] (length
    [rows a]) and returns the permutation sign.  Allocation-free: meant
    for hot loops that refactor the same workspace matrix repeatedly.
    Raises {!Singular} on singular input (the matrix is left partially
    factored). *)

val lu_solve_in_place : Mat.t -> int array -> b:Vec.t -> x:Vec.t -> unit
(** [lu_solve_in_place a perm ~b ~x] solves the system factored by
    {!lu_factor_in_place} into the caller-owned [x] (which must not
    alias [b]); [b] is left untouched.  Allocation-free. *)

val lu_det : lu -> float

val solve : Mat.t -> Vec.t -> Vec.t
(** General square solve via LU with partial pivoting. *)

val inverse : Mat.t -> Mat.t

val det : Mat.t -> float

val lower_solve : Mat.t -> Vec.t -> Vec.t
(** Forward substitution with a lower-triangular matrix. *)

val upper_solve : Mat.t -> Vec.t -> Vec.t
(** Back substitution with an upper-triangular matrix. *)

val expm : Mat.t -> Mat.t
(** Matrix exponential by scaling-and-squaring with a (6,6) Padé
    approximant — used to compute exact linear-circuit responses when
    validating the transient integrators. *)

val solve_least_squares : Mat.t -> Vec.t -> Vec.t
(** [solve_least_squares a b] minimizes [||a x - b||_2] via the normal
    equations with a tiny ridge for robustness.  Requires
    [rows a >= cols a]. *)

