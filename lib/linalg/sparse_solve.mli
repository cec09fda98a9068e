(** Sparse linear-system solver for the global linear equation system.

    QTurbo's global system (paper §4.1, Eq. 5) is structurally almost
    triangular: van-der-Waals rows pin their synthesized variable directly,
    detuning rows then become singletons, and Rabi rows are singletons from
    the start.  The solver exploits this with a greedy substitution pass —
    repeatedly solving any row with exactly one unsolved unknown — and only
    falls back to a dense least-squares factorisation for whatever coupled
    block remains (e.g. shared channels under global control).

    The system may be inconsistent (the AAIS cannot realise the target
    exactly; the van-der-Waals tail is the canonical example) and the
    returned [residual_l1] is then the [ε₁] of the paper's Theorem 1. *)

type stats = {
  greedy_solved : int;  (** unknowns fixed by the substitution pass *)
  dense_solved : int;  (** unknowns fixed by the dense fallback *)
  free_vars : int;  (** unknowns in no equation, set to zero *)
  dense_rows : int;  (** rows given to the dense fallback *)
}

type result = {
  x : Vec.t;
  residual_l1 : float;  (** [‖A x − b‖₁] over all rows *)
  stats : stats;
}

val solve_csr : Csr.t -> rhs:float array -> result
(** Solve [A x = rhs] for a CSR matrix [A] — the one greedy
    implementation.  Never raises on rank deficiency or inconsistency;
    the residual reports the quality.  Each row must name each column
    at most once ({!Csr.repeated_col} is [None]); this is {e not}
    re-checked per call — callers check it where the matrix is built
    (the compiler's skeleton build and its plan lint gate).  Raises
    [Invalid_argument] when [rhs] does not have one entry per row.
    Floats are combined in a fixed order (singletons queued in
    ascending row order, each solved column's rows updated in
    descending row order), so the result is a pure function of the
    stored entries and their order. *)

val dense_csr : Csr.t -> rhs:float array -> result
(** Reference implementation that skips the greedy pass and solves the
    whole system densely (QR least squares).  Used by tests and by the
    [ablation/linear-solver] bench.  Raises [Invalid_argument] when
    [rhs] does not have one entry per row. *)
