(** Box constraints for the unconstrained solvers.

    The amplitude variables of an AAIS are bounded (maximum Rabi amplitude,
    detuning range, atom-position window).  Rather than constrain LM/NM
    directly, bounded variables are mapped through a smooth bijection onto
    the whole real line (the MINUIT parameter transformation), the solver
    runs unconstrained in the internal space, and solutions map back inside
    the box by construction. *)

type bound = { lo : float; hi : float }
(** Either side may be infinite ([neg_infinity] / [infinity]). *)

val unbounded : bound

val make : lo:float -> hi:float -> bound
(** Raises [Invalid_argument] when [lo > hi] or either bound is NaN. *)

val contains : bound -> float -> bool

val clamp : bound -> float -> float

type transform
(** A per-variable stack of transformations. *)

val transform : bound array -> transform

val to_internal : transform -> float array -> float array
(** External (bounded) point → internal (unconstrained) point.  External
    values outside their box are clamped first. *)

val of_internal : transform -> float array -> float array
(** Internal point → external point, always inside the box. *)

val wrap_residual :
  transform -> Objective.residual_fn -> Objective.residual_fn
(** Conjugate a residual function by {!of_internal} so an unconstrained
    solver optimises in internal coordinates. *)
