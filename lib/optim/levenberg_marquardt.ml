open Qturbo_linalg

type options = {
  max_iterations : int;
  ftol : float;
  xtol : float;
  gtol : float;
  lambda_init : float;
  lambda_up : float;
  lambda_down : float;
  max_evaluations : int;
  cost_target : float;
  accept_residual : (float array -> bool) option;
  deadline : float option;
}

let default_options =
  {
    max_iterations = 200;
    ftol = 1e-12;
    xtol = 1e-12;
    gtol = 1e-10;
    lambda_init = 1e-3;
    lambda_up = 8.0;
    lambda_down = 5.0;
    max_evaluations = 100_000;
    cost_target = 0.0;
    accept_residual = None;
    deadline = None;
  }

(* Internal control-flow exceptions.  Both are caught inside [drive] and
   turned into a stop reason on the report; neither can escape to callers. *)
exception Budget_exhausted
exception Deadline_hit

(* The one outer loop behind both Jacobian representations: damping
   schedule, accept/reject, every stopping rule, and the evaluation
   budget and deadline.  What differs is passed in:
   - [jac ~charge x] builds the Jacobian at [x] ([charge k] bills [k]
     residual evaluations to the budget, for finite differences);
   - [gradient j r] is [Jᵀr];
   - [normal j neg_g] prepares the damped normal equations
     [(JᵀJ + λ·diag s) δ = −g] at the current point and returns their
     solver for one damping value, [None] meaning a singular or broken
     solve (the damping is then raised and the attempt retried). *)
let drive ~options ~jac ~gradient ~normal f x0 =
  let n = Array.length x0 in
  let evaluations = ref 0 in
  let check_deadline () =
    match options.deadline with
    | Some t when Qturbo_util.Clock.now () >= t -> raise Deadline_hit
    | _ -> ()
  in
  let eval x =
    check_deadline ();
    if !evaluations >= options.max_evaluations then raise Budget_exhausted;
    incr evaluations;
    f x
  in
  let charge k =
    if !evaluations + k >= options.max_evaluations then raise Budget_exhausted;
    evaluations := !evaluations + k
  in
  let x = ref (Array.copy x0) in
  (* candidate point, double-buffered against [x] *)
  let x_new = ref (Array.make n 0.0) in
  let best_x = Array.copy x0 in
  let r = ref [||] in
  let cost = ref infinity in
  let best_cost = ref infinity in
  let lambda = ref options.lambda_init in
  let iterations = ref 0 in
  let converged = ref false in
  let stop = ref Objective.Stop_max_iterations in
  (try
     r := eval !x;
     cost := Objective.cost_of_residual !r;
     best_cost := !cost;
     let accepted_early r =
       match options.accept_residual with
       | Some f -> f r
       | None -> false
     in
     if not (Float.is_finite !cost) then
       (* NaN/Inf at the initial point: nothing to optimize from.  Report it
          as invalid rather than pretending we converged to a NaN cost. *)
       stop := Objective.Stop_invalid
     else begin
       let continue_loop =
         ref (!cost > options.cost_target && not (accepted_early !r))
       in
       if not !continue_loop then begin
         converged := true;
         stop := Objective.Stop_converged
       end;
       while !continue_loop && !iterations < options.max_iterations do
         incr iterations;
         check_deadline ();
         let j = jac ~charge !x in
         let g = gradient j !r in
         if Vec.norm_inf g <= options.gtol then begin
           converged := true;
           stop := Objective.Stop_converged;
           continue_loop := false
         end
         else begin
           let solve = normal j (Vec.scale (-1.0) g) in
           let accepted = ref false in
           let attempts = ref 0 in
           while (not !accepted) && !attempts < 25 do
             incr attempts;
             match solve !lambda with
             | None -> lambda := !lambda *. options.lambda_up
             | Some delta ->
                 let xc = !x_new in
                 for k = 0 to n - 1 do
                   xc.(k) <- !x.(k) +. delta.(k)
                 done;
                 let r_new = eval xc in
                 let cost_new = Objective.cost_of_residual r_new in
                 if Float.is_finite cost_new && cost_new < !cost then begin
                   accepted := true;
                   let cost_drop = !cost -. cost_new in
                   let step_norm = Vec.norm2 delta in
                   x_new := !x;
                   x := xc;
                   r := r_new;
                   cost := cost_new;
                   if cost_new < !best_cost then begin
                     best_cost := cost_new;
                     Array.blit xc 0 best_x 0 n
                   end;
                   lambda := Float.max 1e-12 (!lambda /. options.lambda_down);
                   if
                     cost_new <= options.cost_target
                     || accepted_early r_new
                     || cost_drop <= options.ftol *. Float.max !cost 1e-300
                     || step_norm
                        <= options.xtol *. (Vec.norm2 !x +. options.xtol)
                   then begin
                     converged := true;
                     stop := Objective.Stop_converged;
                     continue_loop := false
                   end
                 end
                 else lambda := !lambda *. options.lambda_up
           done;
           if not !accepted then begin
             (* no downhill step found at any damping: local minimum *)
             converged := true;
             stop := Objective.Stop_no_progress;
             continue_loop := false
           end
         end
       done
     end
   with
  | Budget_exhausted ->
      converged := false;
      stop := Objective.Stop_max_evaluations
  | Deadline_hit ->
      converged := false;
      stop := Objective.Stop_deadline);
  let residual_norm =
    if !best_cost = infinity then infinity else sqrt (2.0 *. !best_cost)
  in
  {
    Objective.x = best_x;
    cost = !best_cost;
    residual_norm;
    iterations = !iterations;
    evaluations = !evaluations;
    converged = !converged;
    stop = !stop;
  }

(* LU steps: the normal equations with Marquardt scaling on the
   diagonal, factorized into one reusable n×n buffer.  JᵀJ and Jᵀr are
   assembled from whichever representation the Jacobian has; both give
   the same bits for the same matrix. *)
let minimize ?(options = default_options) ?jacobian f x0 =
  let n = Array.length x0 in
  let jac ~charge x =
    match jacobian with
    | Some j -> j x
    | None ->
        (* charge n evaluations for a forward-difference Jacobian *)
        charge n;
        Objective.Dense (Numeric_jacobian.forward f x)
  in
  let gradient j r =
    match j with
    | Objective.Dense m -> Mat.mul_vec_t m r
    | Objective.Csr c -> Csr.mul_vec_t c r
  in
  let damped = Mat.create ~rows:n ~cols:n in
  let normal j neg_g =
    let jtj =
      match j with
      | Objective.Dense m -> Mat.at_mul_self m
      | Objective.Csr c -> Csr.at_mul_self c
    in
    fun lambda ->
      Array.blit (Mat.data jtj) 0 (Mat.data damped) 0 (n * n);
      for k = 0 to n - 1 do
        let d = Mat.get jtj k k in
        let scaled = if d > 0.0 then d else 1.0 in
        Mat.set damped k k (d +. (lambda *. scaled))
      done;
      match Lu.solve_factored (Lu.factorize_in_place damped) neg_g with
      | delta -> if Array.for_all Float.is_finite delta then Some delta else None
      | exception Lu.Singular _ -> None
  in
  drive ~options ~jac ~gradient ~normal f x0

(* Conjugate gradient on the damped normal equations
   [(JᵀJ + λ·diag s) δ = b]: the matrix is only ever applied, never
   formed, so an attempt costs O(cg_iters · nnz) instead of the dense
   path's O(n³) factorization.  Deterministic: fixed iteration order,
   sequential dot products, no data-dependent parallelism.  Returns
   [None] when the iteration hits a non-finite or non-positive curvature
   value (the caller treats it like a singular factorization and raises
   the damping). *)
let cg_normal ~j ~lambda ~scale ~b ~jv ~av =
  let n = Array.length b in
  let m = Csr.rows j in
  let row_ptr = Csr.row_ptr j
  and col_idx = Csr.col_idx j
  and values = Csr.values j in
  let apply v out =
    (* jv ← J v *)
    for i = 0 to m - 1 do
      let s = ref 0.0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        s := !s +. (values.(k) *. v.(col_idx.(k)))
      done;
      jv.(i) <- !s
    done;
    (* out ← Jᵀ jv + λ·s∘v *)
    Array.fill out 0 n 0.0;
    for i = 0 to m - 1 do
      let yi = jv.(i) in
      if yi <> 0.0 then
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let c = col_idx.(k) in
          out.(c) <- out.(c) +. (values.(k) *. yi)
        done
    done;
    for k = 0 to n - 1 do
      out.(k) <- out.(k) +. (lambda *. scale.(k) *. v.(k))
    done
  in
  let dot a b =
    let s = ref 0.0 in
    for k = 0 to Array.length a - 1 do
      s := !s +. (a.(k) *. b.(k))
    done;
    !s
  in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy b in
  let rs = ref (dot r r) in
  let b2 = !rs in
  if b2 = 0.0 then Some x
  else begin
    let tol2 = 1e-24 *. b2 in
    let max_iters = Int.max 8 (2 * n) in
    let it = ref 0 in
    let failed = ref false in
    while (not !failed) && !rs > tol2 && !it < max_iters do
      incr it;
      apply p av;
      let pap = dot p av in
      if not (Float.is_finite pap && pap > 0.0) then failed := true
      else begin
        let alpha = !rs /. pap in
        for k = 0 to n - 1 do
          x.(k) <- x.(k) +. (alpha *. p.(k));
          r.(k) <- r.(k) -. (alpha *. av.(k))
        done;
        let rs_new = dot r r in
        if not (Float.is_finite rs_new) then failed := true
        else begin
          let beta = rs_new /. !rs in
          for k = 0 to n - 1 do
            p.(k) <- r.(k) +. (beta *. p.(k))
          done;
          rs := rs_new
        end
      end
    done;
    if !failed || not (Array.for_all Float.is_finite x) then None else Some x
  end

(* Sparse steps: conjugate gradients on the same damped normal
   equations, with the Marquardt scale taken from the diagonal of JᵀJ
   exactly as the LU path does (zero columns get unit scale). *)
let minimize_sparse ?(options = default_options) ~jacobian f x0 =
  let n = Array.length x0 in
  (* CG scratch, sized on the first Jacobian *)
  let jv = ref [||] in
  let av = Array.make n 0.0 in
  let normal j neg_g =
    if Array.length !jv < Csr.rows j then jv := Array.make (Csr.rows j) 0.0;
    let scale =
      Array.map (fun d -> if d > 0.0 then d else 1.0) (Csr.col_sq_sums j)
    in
    fun lambda -> cg_normal ~j ~lambda ~scale ~b:neg_g ~jv:!jv ~av
  in
  drive ~options
    ~jac:(fun ~charge:_ x -> jacobian x)
    ~gradient:Csr.mul_vec_t ~normal f x0
