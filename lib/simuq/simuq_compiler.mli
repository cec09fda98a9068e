(** The SimuQ-style baseline compiler.

    Faithful to the baseline's {e strategy} (paper §2.2, §3): build the
    single global mixed system and hand it to a black-box nonlinear
    least-squares solver (bounded Levenberg–Marquardt with
    finite-difference Jacobians, as SciPy's [least_squares] is) from
    random initial points, sampling a random on/off assignment of the
    instruction indicator variables per start.  The first start keeps all
    instructions on.

    Consequences, matching the limitations the paper reports:
    {ul
    {- compile time grows superlinearly (dense Jacobians over {e all}
       variables and rows, times restarts);}
    {- the returned [T_sim] is whatever feasible value the solver landed
       on — random, usually far from minimal;}
    {- when no start converges inside the budget, compilation {e fails}
       (the paper's missing SimuQ data points).}} *)

type options = {
  starts : int;  (** random restarts (default 8) *)
  accept_relative_error : float;
      (** accept a start whose relative error (%) falls below this
          (default 2.0) *)
  t_max : float;  (** search window for the evolution time (default 10.) *)
  max_evaluations_per_start : int;  (** LM budget per start *)
  time_budget_seconds : float;
      (** overall wall-clock budget (default 120.); no start begins
          after it, and a running start stops at it, past it by at most
          one Jacobian *)
  seed : int64;
}

val default_options : options

type result = {
  success : bool;
  env : float array;  (** variable values of the best start *)
  t_sim : float;
  error_l1 : float;
  relative_error : float;  (** percent *)
  indicators : bool array;  (** instruction on/off of the best start *)
  starts_used : int;
  compile_seconds : float;
}

val compile :
  ?options:options ->
  aais:Qturbo_aais.Aais.t ->
  target:Qturbo_pauli.Pauli_sum.t ->
  t_tar:float ->
  unit ->
  result
(** On failure ([success = false]) the best attempt is still reported
    (its error just missed the acceptance threshold or the budget ran
    out). *)
