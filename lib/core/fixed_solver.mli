(** Runtime-fixed-variable solver (paper §5.2).

    Once the evolution time is fixed by the dynamic bottleneck, the
    runtime-fixed variables (atom positions) must satisfy
    [expr_c(x) = α_c / T_sim] for every channel of their component.  The
    system is nonlinear (van-der-Waals tails couple every pair), generally
    inconsistent (far pairs cannot reach exactly zero), and solved in
    least squares by Levenberg–Marquardt with exact symbolic Jacobians.

    Initialisation: the variables' built-in initial layout is first
    rescaled by one uniform factor [s], which brings the initial guess
    into the right magnitude basin before LM refines the shape.  When
    every row is homogeneous of the same degree [d ≠ 0] in the
    coordinates ({!degree}; van-der-Waals rows have [d = −6]), the rows
    at [s·x_init] are [s^d·a_i] with [a_i = row_i(x_init)·T_sim], so the
    least-squares [s] has a closed form that costs one residual pass:
    [u* = Σ a_i α_i / Σ a_i²] and [ln s = clamp(ln u* / d, −3, 3)].  A
    component that is not homogeneous, or whose [u*] is not a finite
    positive number (every [α_i = 0], or [α] anti-correlated with the
    rows), falls back to a golden-section search over [ln s] on the same
    bracket. *)

type result = {
  assignments : (int * float) list;  (** [(variable id, value)] *)
  eps2 : float;  (** L1 residual against the component's α targets *)
}

type prepared
(** The (α, T_sim)-independent part of a solve: the free/pinned
    variable split, the packed residual kernels, the Jacobian's CSR
    pattern (row pointers and column indices) with one compiled
    derivative kernel per stored entry, and the rows' degree of
    homogeneity.  Preparing once and re-solving across the §5.2
    constraint iteration avoids re-deriving O(rows · vars) symbolic
    derivatives on every probe — the single largest cost of the
    original solver on position components.  Self-contained: it keeps
    the bounds and initial layout it reads and no reference to the
    [vars] and [channels] it was prepared from, so it serves any device
    whose key equals theirs.  Immutable and shareable across pool
    domains. *)

val par_threshold : int
(** Row count (for the residual) and stored Jacobian-entry count (for
    the Jacobian) from which [domains > 1] evaluates them on the pool;
    below it they run sequentially at any width.  32,768: only
    components far larger than any Fig. 3 benchmark reach the pool. *)

val sparse_threshold : int
(** Free-variable count at which the LM position solve switches from
    the LU factorization of the normal equations (O(nv³) per damping
    attempt, {!Qturbo_optim.Levenberg_marquardt.minimize}) to the
    conjugate-gradient path
    ({!Qturbo_optim.Levenberg_marquardt.minimize_sparse}).  Both take
    the same CSR Jacobian over the prepared pattern, its values refilled
    in place; no dense Jacobian is built on either side.  Components
    below it — every Fig. 3-scale device — get [JᵀJ] assembled from
    the CSR bitwise as the dense matrix gave it, so they stay
    bitwise-identical to prior releases.  On the CG path under a
    supervisor, the escalation ladder is bypassed (the deadline still
    applies; hard failures surface as non-fatal records) and injected
    faults are not applied. *)

val prepare :
  vars:Qturbo_aais.Variable.t array ->
  channels:Qturbo_aais.Instruction.channel array ->
  Locality.component ->
  prepared
(** Rows that share an expression template derive and compile their
    Jacobian kernels once per call and relabel them after that
    ({!Qturbo_aais.Expr.Deriv_table}); the kernels are the ones a
    direct compile gives.  Raises [Invalid_argument] when a Jacobian
    row's free columns are not strictly ascending — the order the LU
    path's [JᵀJ] assembly needs and the CG path's row products sum in.
    It holds by construction; the check runs once per plan instead of
    once per Jacobian. *)

val component : prepared -> Locality.component

val degree : prepared -> int option
(** [Some d] when every row of the component is homogeneous of the same
    degree [d ≠ 0] under a uniform rescale of its free coordinates,
    decided once by {!prepare} from the expressions and the component's
    own variables: free variables and variables pinned at [0.0] have
    degree 1; constants and variables pinned elsewhere have degree 0;
    [Mul] adds degrees, [Div] subtracts them, [Pow_int] multiplies them
    by the exponent; [Add] and [Sub] need equal degrees, [Sin] and [Cos]
    degree 0.  [None] otherwise — e.g. a layout whose pinned atom sits
    off the origin, where a difference like [x0 − x1] mixes degrees 0
    and 1. *)

type start = {
  log_scale : float;  (** [ln s]: the layout LM starts from is [s·x_init] *)
  closed_form : bool;  (** [false]: the golden-section search ran *)
  failures : Qturbo_resilience.Failure.t list;
      (** a non-fatal [Non_convergence] record (stage ["prefit"]) when
          the search stopped above tolerance; always empty for the
          closed form *)
}

val prefit : alpha:float array -> t_sim:float -> prepared -> start
(** The magnitude pre-fit {!solve} starts from (see
    "Initialisation" above), on one domain: the same start at any pool
    width.  Raises [Invalid_argument] when [t_sim <= 0]. *)

val solve :
  ?domains:int ->
  sup:Qturbo_resilience.Supervisor.t ->
  alpha:float array ->
  t_sim:float ->
  prepared ->
  result * Qturbo_resilience.Failure.t list
(** Solve at a given [T_sim], the LM position solve running under the
    resilience escalation ladder (site ["fixed-solve"], the component's
    locality id; the position boxes seed the multistart stage), starting
    from {!prefit}'s layout and reporting its failure records first.  On
    a hard solver failure the returned layout is the (clamped) pre-fit
    initial layout and the failure list says why.  [domains > 1]
    evaluates the residual rows (in contiguous ranges of the packed
    batch) and the Jacobian entries on the pool (disjoint writes
    collected by index, so the result is bitwise-identical to
    [domains = 1]; components below {!par_threshold} rows or entries
    stay sequential regardless).
    Raises [Invalid_argument] when [t_sim <= 0]. *)
