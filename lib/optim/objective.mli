(** Shared types for the nonlinear solvers. *)

type residual_fn = float array -> float array
(** A vector residual [F : R^n -> R^m]; solvers minimise [‖F(x)‖₂²]. *)

(** A Jacobian [J(x)] with [J_{ij} = ∂F_i/∂x_j], in the representation
    its producer has.  Solvers take either and give the same bits for
    the same matrix. *)
type jacobian =
  | Dense of Qturbo_linalg.Mat.t
      (** numeric Jacobians: forward differences, SimuQ's central
          differences *)
  | Csr of Qturbo_linalg.Csr.t
      (** exact sparse Jacobians (the position solve); columns strictly
          ascending within each row *)

type jacobian_fn = float array -> jacobian

type scalar_fn = float array -> float

(** Why a solver handed back the iterate it did.  [converged] alone cannot
    distinguish "hit the tolerance" from "hit the wall-clock deadline with
    a garbage iterate"; the resilience supervisor classifies failures from
    this. *)
type stop_reason =
  | Stop_converged  (** tolerance / cost target / accept predicate met *)
  | Stop_no_progress  (** no downhill step at any damping: local minimum *)
  | Stop_max_iterations
  | Stop_max_evaluations
  | Stop_deadline  (** wall-clock deadline expired mid-solve *)
  | Stop_invalid  (** non-finite cost at the initial point *)

val stop_name : stop_reason -> string
(** Stable kebab-case name for reports and logs. *)

type report = {
  x : float array;  (** best point found *)
  cost : float;  (** [0.5 · ‖F(x)‖₂²] (or the scalar value for NM) *)
  residual_norm : float;  (** [‖F(x)‖₂] *)
  iterations : int;
  evaluations : int;  (** residual/scalar function evaluations *)
  converged : bool;
  stop : stop_reason;
}

val cost_of_residual : float array -> float
(** [0.5 · ‖r‖₂²]. *)

val failed_report : x:float array -> stop:stop_reason -> report
(** A report for a solve that produced nothing usable: the caller's point
    with infinite cost, so any finite competitor wins. *)
