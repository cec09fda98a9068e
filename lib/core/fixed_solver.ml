open Qturbo_aais
open Qturbo_optim
open Qturbo_linalg

type result = { assignments : (int * float) list; eps2 : float }

let is_pinned (b : Bounds.bound) = b.Bounds.lo = b.Bounds.hi

(* Everything independent of (α, T_sim), derived once per component:
   the free/pinned split, the sparse symbolic Jacobian (structure and
   compiled derivative kernels), the channel kernels and the rows'
   common degree of homogeneity.  It holds its own programs, bounds and
   starting layout and nothing of the device it came from, so a cached
   plan serves every device whose key equals its own.  The dominant
   saving is the Jacobian scan: probing every (row, variable) pair costs
   O(rows · cols) symbolic derivatives, while scanning each row's own
   variable set costs O(rows · vars-per-row) — a van-der-Waals channel
   touches 4 coordinates, not all of them. *)
type prepared = {
  comp : Locality.component;
  free_ids : int array;
  cids : int array;
  env_size : int;
  x_init : float array;
  bounds : Bounds.bound array;
  pinned : (int * float) list;
  res_batch : Expr.Batch.t;
      (* the component's channel kernels packed for SoA evaluation —
         one flat program per residual sweep instead of per-row
         dispatch *)
  jac_row_ptr : int array;
  jac_col_idx : int array;
      (* the CSR pattern of the Jacobian both step solvers take: per
         row, the free columns with structurally nonzero derivative,
         strictly ascending (checked below) *)
  jac_kernels : Expr.kernel array;
      (* d row / d column for slot [t] of the pattern *)
  degree : int option;
      (* [Some d]: every row is homogeneous of degree d ≠ 0 in the free
         coordinates ([expr_degree]) *)
}

(* The degree of [e] under a uniform rescale x ↦ s·x of the free
   coordinates, [None] when [e] is not homogeneous.  A variable pinned
   at 0.0 scales with them (s·0 = 0); one pinned elsewhere, like a
   constant, does not. *)
let rec expr_degree ~var_degree (e : Expr.t) =
  let both a b f =
    match (expr_degree ~var_degree a, expr_degree ~var_degree b) with
    | Some da, Some db -> f da db
    | _ -> None
  in
  match e with
  | Const _ -> Some 0
  | Var v -> var_degree v
  | Neg a -> expr_degree ~var_degree a
  | Add (a, b) | Sub (a, b) ->
      both a b (fun da db -> if da = db then Some da else None)
  | Mul (a, b) -> both a b (fun da db -> Some (da + db))
  | Div (a, b) -> both a b (fun da db -> Some (da - db))
  | Pow_int (a, n) -> Option.map (fun d -> d * n) (expr_degree ~var_degree a)
  | Sin a | Cos a -> (
      match expr_degree ~var_degree a with Some 0 -> Some 0 | _ -> None)

let component p = p.comp

let prepare ~vars ~channels (comp : Locality.component) =
  let all_ids = Array.of_list comp.Locality.var_ids in
  (* gauge-pinned coordinates (lo = hi) are held fixed; optimising them
     would let LM translate the layout and the clamp would then break it *)
  let free_ids =
    Array.of_list
      (List.filter
         (fun v -> not (is_pinned vars.(v).Variable.bound))
         comp.Locality.var_ids)
  in
  let cids = Array.of_list comp.Locality.channel_ids in
  let n_rows = Array.length cids in
  let env_size = Array.fold_left (fun acc v -> Int.max acc (v + 1)) 1 all_ids in
  let k_of_var = Array.make env_size (-1) in
  Array.iteri (fun k v -> k_of_var.(v) <- k) free_ids;
  let pinned =
    List.filter_map
      (fun v ->
        if is_pinned vars.(v).Variable.bound then
          Some (v, vars.(v).Variable.bound.Bounds.lo)
        else None)
      comp.Locality.var_ids
  in
  (* only the structurally nonzero entries, found by scanning each
     channel's own variable set rather than the full free-variable list;
     rows sharing an expression template (every van-der-Waals pair)
     derive and compile once and relabel after that *)
  let triples =
    let derivs = Expr.Deriv_table.create () in
    let free v = v < env_size && k_of_var.(v) >= 0 in
    let triples = ref [] in
    Array.iteri
      (fun i cid ->
        let ch = channels.(cid) in
        List.iter
          (fun (v, d) -> triples := (i, k_of_var.(v), d) :: !triples)
          (Expr.Deriv_table.kernels derivs ~wrt:free ch.Instruction.template
             ch.Instruction.ids))
      cids;
    Array.of_list (List.rev !triples)
  in
  let jac_row_ptr = Array.make (n_rows + 1) 0 in
  Array.iter (fun (i, _, _) -> jac_row_ptr.(i + 1) <- jac_row_ptr.(i + 1) + 1)
    triples;
  for i = 1 to n_rows do
    jac_row_ptr.(i) <- jac_row_ptr.(i) + jac_row_ptr.(i - 1)
  done;
  let jac_col_idx = Array.map (fun (_, k, _) -> k) triples in
  (* The LU path's JᵀJ assembly needs ascending columns within a row,
     and the CG path's row products sum in this order.  Both hold by
     construction (union-find groups list their members in ascending
     order and [Deriv_table.kernels] returns ascending ids); check it
     once per plan here rather than once per Jacobian. *)
  for i = 0 to n_rows - 1 do
    for t = jac_row_ptr.(i) + 1 to jac_row_ptr.(i + 1) - 1 do
      if jac_col_idx.(t) <= jac_col_idx.(t - 1) then
        invalid_arg
          (Printf.sprintf
             "Fixed_solver.prepare: component %d, Jacobian row %d: free \
              columns not strictly ascending"
             comp.Locality.id i)
    done
  done;
  let degree =
    let var_degree v =
      if v < env_size && k_of_var.(v) >= 0 then Some 1
      else
        match List.assoc_opt v pinned with
        | Some x -> Some (if x = 0.0 then 1 else 0)
        | None -> None
    in
    (* a row's degree is its template's under the degrees of its ids:
       derived once per (template, signature), as most rows share both *)
    let memo = Expr.Template_memo.create () in
    let row cid =
      let ch = channels.(cid) in
      let signature = Array.map var_degree ch.Instruction.ids in
      let seen =
        Expr.Template_memo.find_or_add memo ch.Instruction.template (fun () ->
            ref [])
      in
      match List.assoc_opt signature !seen with
      | Some d -> d
      | None ->
          let d =
            expr_degree
              ~var_degree:(fun l -> signature.(l))
              (Expr.template_expr ch.Instruction.template)
          in
          seen := (signature, d) :: !seen;
          d
    in
    if n_rows = 0 then None
    else
      match row cids.(0) with
      | Some d when d <> 0 && Array.for_all (fun c -> row c = Some d) cids ->
          Some d
      | _ -> None
  in
  {
    comp;
    free_ids;
    cids;
    env_size;
    x_init = Array.map (fun v -> vars.(v).Variable.init) free_ids;
    bounds = Array.map (fun v -> vars.(v).Variable.bound) free_ids;
    pinned;
    res_batch =
      Expr.Batch.pack
        (Array.map (fun cid -> channels.(cid).Instruction.kernel) cids);
    jac_row_ptr;
    jac_col_idx;
    jac_kernels = Array.map (fun (_, _, d) -> d) triples;
    degree;
  }

let degree p = p.degree

(* Below this many rows/entries the solve stays sequential on every
   domain count, so the pool only ever sees components far larger than
   any Fig. 3 benchmark.  On a 2-CPU VM, all-pairs ising-cycle position
   rows filled back to back: one batch pass costs ~18 ns a row
   (578 µs for the 32,896 rows of n = 257), 2 or 4 domains fill them in
   385 and 372 µs, and 79,800 rows in 0.63× of one pass; below ~4k rows
   the dispatch eats the gain.  A whole warm n = 257 solve (~45 ms, mostly
   the sparse step) did not resolve the difference either way. *)
let par_threshold = 32_768

(* The residual rows r_i(x) = row_i(x)·T_sim − α_i of one solve, over
   an environment holding the pinned values, whose free slots [load]
   rewrites.  [fill x] loads [x] and evaluates every row into [out];
   [residual], [cost] and the closed-form pre-fit all read it there. *)
type sweep = {
  env : float array;
  out : float array;
  load : float array -> unit;
  fill : float array -> unit;
  residual : float array -> float array;
  cost : float array -> float;  (* Σ r_i², summed in row order *)
}

let sweep ~domains ~alpha ~t_sim p =
  if t_sim <= 0.0 then
    invalid_arg
      (Printf.sprintf "Fixed_solver.solve: t_sim <= 0 (component %d)"
         p.comp.Locality.id);
  let cids = p.cids and free_ids = p.free_ids in
  let n_rows = Array.length cids in
  let env = Array.make p.env_size 0.0 in
  List.iter (fun (v, x) -> env.(v) <- x) p.pinned;
  let out = Array.make n_rows 0.0 in
  let load x = Array.iteri (fun k v -> env.(v) <- x.(k)) free_ids in
  (* contiguous row ranges into disjoint slices of [out] (one range,
     run in place, below the threshold): each row is the same program
     on the same env, so the bits match the sequential pass *)
  let ranges =
    if n_rows < par_threshold || domains <= 1 then 1 else 4 * domains
  in
  let fill x =
    load x;
    Qturbo_par.Pool.parallel_for ~domains ~total:ranges (fun c ->
        Expr.Batch.eval p.res_batch ~env ~out
          ~lo:(c * n_rows / ranges)
          ~hi:((c + 1) * n_rows / ranges))
  in
  let residual x =
    fill x;
    Array.init n_rows (fun i ->
        (Array.unsafe_get out i *. t_sim) -. alpha.(Array.unsafe_get cids i))
  in
  let cost x =
    (* allocation-free: square the rows straight out of [out] *)
    fill x;
    let acc = ref 0.0 in
    for i = 0 to n_rows - 1 do
      let ri =
        (Array.unsafe_get out i *. t_sim) -. alpha.(Array.unsafe_get cids i)
      in
      acc := !acc +. (ri *. ri)
    done;
    !acc
  in
  { env; out; load; fill; residual; cost }

type start = {
  log_scale : float;
  closed_form : bool;
  failures : Qturbo_resilience.Failure.t list;
}

let scaled p s = Array.map (fun x -> s *. x) p.x_init

(* Magnitude pre-fit: one uniform rescale s of the initial layout,
   bringing it into the right magnitude basin before LM refines the
   shape.  When every row is homogeneous of degree d, the rows at
   s·x_init are s^d·a_i with a_i = row_i(x_init)·T_sim, so the cost
   Σ (u·a_i − α_i)² is a parabola in u = s^d with its minimum at
   u* = Σ a_i α_i / Σ a_i² — one residual pass.  Otherwise, or when u*
   is not a positive number, a golden-section search over ln s runs on
   the same bracket. *)
let start_of_sweep ~alpha ~t_sim p sw =
  let closed_form =
    match p.degree with
    | None -> None
    | Some d ->
        sw.fill p.x_init;
        let num = ref 0.0 and den = ref 0.0 in
        for i = 0 to Array.length p.cids - 1 do
          let a = Array.unsafe_get sw.out i *. t_sim in
          num := !num +. (a *. alpha.(Array.unsafe_get p.cids i));
          den := !den +. (a *. a)
        done;
        let u = !num /. !den in
        if Float.is_finite u && u > 0.0 then
          Some (Float.min 3.0 (Float.max (-3.0) (log u /. float_of_int d)))
        else None
  in
  match closed_form with
  | Some log_scale -> { log_scale; closed_form = true; failures = [] }
  | None ->
      let m =
        Scalar.golden_min
          ~f:(fun ls -> sw.cost (scaled p (exp ls)))
          ~lo:(-3.0) ~hi:3.0 ()
      in
      let failures =
        if m.Scalar.converged then []
        else
          [
            Qturbo_resilience.Failure.make ~component:p.comp.Locality.id
              ~site:"fixed-solve" ~stage:"prefit" ~fatal:false
              ~class_:Qturbo_resilience.Failure.Non_convergence
              (Printf.sprintf
                 "magnitude pre-fit stopped after %d iterations above \
                  tolerance"
                 m.Scalar.iterations);
          ]
      in
      { log_scale = m.Scalar.argmin; closed_form = false; failures }

let prefit ~alpha ~t_sim p =
  start_of_sweep ~alpha ~t_sim p (sweep ~domains:1 ~alpha ~t_sim p)

let solve ?(domains = 1) ~sup ~alpha ~t_sim p =
  let sw = sweep ~domains ~alpha ~t_sim p in
  let start = start_of_sweep ~alpha ~t_sim p sw in
  let nv = Array.length p.free_ids in
  let x0_ext = scaled p (exp start.log_scale) in
  let nnz = Array.length p.jac_kernels in
  let jac_domains = if nnz < par_threshold then 1 else domains in
  (* exact symbolic Jacobian; LM runs in external coordinates (position
     boxes are wide, so iterates stay interior) and the result is clamped,
     any clamping error landing in eps2.  The Jacobian is a CSR over the
     prepared pattern whose value array a solve allocates once and
     refills in place; LM takes LU steps on it below
     [Levenberg_marquardt.cg_threshold] free variables and CG steps from
     there, so no dense Jacobian is ever allocated. *)
  let csr =
    Csr.of_pattern ~cols:nv ~row_ptr:p.jac_row_ptr ~col_idx:p.jac_col_idx
  in
  let values = Csr.values csr in
  let jacobian x =
    sw.load x;
    Qturbo_par.Pool.parallel_for ~domains:jac_domains ~total:nnz (fun t ->
        values.(t) <-
          Expr.eval_kernel (Array.unsafe_get p.jac_kernels t) ~env:sw.env
          *. t_sim);
    Objective.Csr csr
  in
  let outcome =
    Qturbo_resilience.Supervisor.solve sup ~site:"fixed-solve"
      ~component:p.comp.Locality.id ~jacobian ~bounds:p.bounds sw.residual
      x0_ext
  in
  let report = outcome.Qturbo_resilience.Supervisor.report in
  let x_ext =
    Array.mapi (fun k x -> Bounds.clamp p.bounds.(k) x) report.Objective.x
  in
  let final = sw.residual x_ext in
  let eps2 = Array.fold_left (fun acc r -> acc +. Float.abs r) 0.0 final in
  let free_assignments =
    List.init nv (fun k -> (p.free_ids.(k), x_ext.(k)))
  in
  ( { assignments = free_assignments @ p.pinned; eps2 },
    start.failures @ outcome.Qturbo_resilience.Supervisor.failures )
