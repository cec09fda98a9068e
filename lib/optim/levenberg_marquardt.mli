(** Levenberg–Marquardt nonlinear least squares.

    Minimises [0.5 ‖F(x)‖₂²] for a residual [F : R^n → R^m].  This is the
    workhorse behind (a) the runtime-fixed-variable solver (atom positions
    against van-der-Waals targets), (b) the generic localized-mixed-system
    fallback, and (c) the SimuQ baseline's global mixed solve. *)

type options = {
  max_iterations : int;  (** outer LM iterations (default 200) *)
  ftol : float;  (** relative cost-decrease convergence threshold *)
  xtol : float;  (** relative step-size convergence threshold *)
  gtol : float;  (** gradient-infinity-norm convergence threshold *)
  lambda_init : float;  (** initial damping *)
  lambda_up : float;  (** damping multiplier on rejection *)
  lambda_down : float;  (** damping divisor on acceptance *)
  max_evaluations : int;
      (** hard budget on residual evaluations, Jacobian columns included —
          the knob the SimuQ baseline uses to model compilation failure *)
  cost_target : float;
      (** stop as soon as the cost falls to or below this (0. disables);
          models a solver that accepts any point within tolerance rather
          than polishing to the optimum *)
  accept_residual : (float array -> bool) option;
      (** like [cost_target] but with a caller-supplied criterion on the
          raw residual vector (e.g. an L1 tolerance); checked at the start
          and after every accepted step *)
  deadline : float option;
      (** absolute wall-clock deadline ([Clock.now]-based).  Checked before
          every residual/Jacobian evaluation; on expiry the solve stops and
          reports the best point seen with [stop = Stop_deadline] *)
}

val default_options : options

val cg_threshold : int
(** Unknown count from which {!minimize} takes a CSR Jacobian's steps
    by conjugate gradients instead of an LU factorization: 256.  Every
    Fig. 3-scale position solve (n ≤ 100 atoms, ≤ ~200 coordinates)
    stays on LU, while planar Rydberg layouts from n ≈ 130 get the
    near-linear step. *)

val minimize :
  ?options:options ->
  ?jacobian:Objective.jacobian_fn ->
  Objective.residual_fn ->
  float array ->
  Objective.report
(** [minimize f x0] runs LM from [x0].  When [jacobian] is omitted a
    forward-difference Jacobian is used (its evaluations are charged to
    the budget).  Each damped step solves
    [(JᵀJ + λ·diag s) δ = −Jᵀr], [s] the diagonal of [JᵀJ] with zero
    columns mapped to 1, and the solver is picked from the Jacobian:
    - a [Dense] Jacobian, or a [Csr] one with fewer than {!cg_threshold}
      unknowns, takes an LU solve of the normal equations, [JᵀJ] and
      [Jᵀr] assembled with {!Qturbo_linalg.Mat.at_mul_self} or
      {!Qturbo_linalg.Csr.at_mul_self}.  The two give the same bits for
      the same matrix (the residual is finite wherever a gradient is
      taken), so below {!cg_threshold} a problem's report does not
      depend on its Jacobian's representation;
    - a [Csr] Jacobian with at least {!cg_threshold} unknowns takes
      conjugate-gradient steps on the same equations, the matrix applied
      and never formed: O(cg·nnz) per damping attempt instead of an
      O(n³) factorization, and no n×n buffer.  Deterministic; a CG
      breakdown is treated like a singular factorization.

    The report's [converged] is true when any of the three tolerances
    triggered; exhausting the iteration or evaluation budget leaves it
    false while still returning the best point seen, with [report.stop]
    naming the cause ([Stop_max_evaluations], [Stop_deadline],
    [Stop_invalid] for a non-finite initial cost, …).  No exception ever
    escapes [minimize] itself: the internal budget and deadline signals
    are caught here and surfaced only through the report. *)
