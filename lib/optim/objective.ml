type residual_fn = float array -> float array
type jacobian = Dense of Qturbo_linalg.Mat.t | Csr of Qturbo_linalg.Csr.t
type jacobian_fn = float array -> jacobian
type scalar_fn = float array -> float

(* Why a solver handed back the iterate it did.  [converged] alone cannot
   distinguish "hit the tolerance" from "hit the wall-clock deadline with a
   garbage iterate", and the resilience supervisor needs that distinction to
   classify failures. *)
type stop_reason =
  | Stop_converged (* tolerance / cost target / accept predicate met *)
  | Stop_no_progress (* no downhill step at any damping: local minimum *)
  | Stop_max_iterations
  | Stop_max_evaluations
  | Stop_deadline (* wall-clock deadline expired mid-solve *)
  | Stop_invalid (* non-finite cost at the initial point *)

let stop_name = function
  | Stop_converged -> "converged"
  | Stop_no_progress -> "no-progress"
  | Stop_max_iterations -> "max-iterations"
  | Stop_max_evaluations -> "max-evaluations"
  | Stop_deadline -> "deadline"
  | Stop_invalid -> "invalid"

type report = {
  x : float array;
  cost : float;
  residual_norm : float;
  iterations : int;
  evaluations : int;
  converged : bool;
  stop : stop_reason;
}

let cost_of_residual r = 0.5 *. Qturbo_linalg.Vec.dot r r

(* A report for a solve that produced nothing usable: the caller keeps its
   initial iterate and an infinite cost so any finite competitor wins. *)
let failed_report ~x ~stop =
  {
    x = Array.copy x;
    cost = infinity;
    residual_norm = infinity;
    iterations = 0;
    evaluations = 0;
    converged = false;
    stop;
  }
