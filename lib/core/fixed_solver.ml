open Qturbo_aais
open Qturbo_optim
open Qturbo_linalg

type result = { assignments : (int * float) list; eps2 : float }

let is_pinned (b : Bounds.bound) = b.Bounds.lo = b.Bounds.hi

(* Everything independent of (α, T_sim), derived once per component:
   the free/pinned split, the sparse symbolic Jacobian (structure and
   compiled derivative kernels) and the channel kernels.  The dominant
   saving is the Jacobian scan: probing every (row, variable) pair costs
   O(rows · cols) symbolic derivatives, while scanning each row's own
   variable set costs O(rows · vars-per-row) — a van-der-Waals channel
   touches 4 coordinates, not all of them. *)
type prepared = {
  comp : Locality.component;
  vars : Variable.t array;
  channels : Instruction.channel array;
  free_ids : int array;
  cids : int array;
  env_size : int;
  x_init : float array;
  bounds : Bounds.bound array;
  pinned : (int * float) list;
  nonzero_derivs : (int * int * Expr.kernel) array; (* (row, free col, d/dv) *)
  res_batch : Expr.Batch.t;
      (* the component's channel kernels packed for SoA evaluation —
         one flat program per residual sweep instead of per-row
         dispatch *)
  jac_row_slots : (int * float) list array;
      (* per row, the free columns with structurally nonzero derivative,
         in [nonzero_derivs] order (strictly ascending, checked below) —
         the CSR template of the Jacobian both step solvers take.
         [Csr.of_row_lists] on this packs slot [t] of the value array at
         exactly triple [t]. *)
}

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
  let env_size = Array.fold_left (fun acc v -> Int.max acc (v + 1)) 1 all_ids in
  let k_of_var = Array.make env_size (-1) in
  Array.iteri (fun k v -> k_of_var.(v) <- k) free_ids;
  (* only the structurally nonzero entries, found by scanning each
     channel's own variable set rather than the full free-variable list;
     rows sharing an expression template (every van-der-Waals pair)
     derive and compile once and relabel after that *)
  let nonzero_derivs =
    let derivs = Expr.Deriv_table.create () in
    let free v = v < env_size && k_of_var.(v) >= 0 in
    let triples = ref [] in
    Array.iteri
      (fun i cid ->
        List.iter
          (fun (v, d) -> triples := (i, k_of_var.(v), d) :: !triples)
          (Expr.Deriv_table.kernels derivs ~wrt:free
             channels.(cid).Instruction.expr))
      cids;
    Array.of_list (List.rev !triples)
  in
  let jac_row_slots =
    let rows = Array.make (Array.length cids) [] in
    Array.iter (fun (i, k, _) -> rows.(i) <- (k, 0.0) :: rows.(i))
      nonzero_derivs;
    Array.map List.rev rows
  in
  (* The LU path's JᵀJ assembly needs ascending columns within a row,
     and the CG path's row products sum in this order.  Both hold by
     construction (union-find groups list their members in ascending
     order and [Expr.vars] is sorted); check it once per plan here
     rather than once per Jacobian. *)
  Array.iteri
    (fun i slots ->
      ignore
        (List.fold_left
           (fun prev (k, _) ->
             if k <= prev then
               invalid_arg
                 (Printf.sprintf
                    "Fixed_solver.prepare: component %d, Jacobian row %d: \
                     free columns not strictly ascending"
                    comp.Locality.id i);
             k)
           (-1) slots))
    jac_row_slots;
  {
    comp;
    vars;
    channels;
    free_ids;
    cids;
    env_size;
    x_init = Array.map (fun v -> vars.(v).Variable.init) free_ids;
    bounds = Array.map (fun v -> vars.(v).Variable.bound) free_ids;
    pinned =
      List.filter_map
        (fun v ->
          if is_pinned vars.(v).Variable.bound then
            Some (v, vars.(v).Variable.bound.Bounds.lo)
          else None)
        comp.Locality.var_ids;
    nonzero_derivs;
    res_batch =
      Expr.Batch.pack
        (Array.map (fun cid -> channels.(cid).Instruction.kernel) cids);
    jac_row_slots;
  }

let rebind p ~vars ~channels = { p with vars; channels }

(* Below this many rows/entries the pool dispatch costs more than it
   saves: submitting a job and waking sleeping workers runs ~0.5 ms,
   while a compiled-kernel row evaluates in ~10 ns — a residual pass
   over 4k van-der-Waals rows is ~50 µs of work.  Fine-grained inner
   parallelism only pays on components far larger than any Fig. 3
   benchmark; smaller solves stay sequential on every domain count. *)
let par_threshold = 32_768

(* Free-variable count at which the LM position solve switches from the
   LU factorization of the normal equations (O(nv³) per damping attempt)
   to conjugate gradients.  Every Fig. 3-scale device (n ≤ 100 atoms,
   nv ≤ ~200) stays on the LU path — assembled from the CSR Jacobian
   bitwise as the dense matrix used to be — while n ≳ 130 planar
   layouts get the near-linear solve. *)
let sparse_threshold = 256

let solve_supervised ?(domains = 1) ~sup ~alpha ~t_sim p =
  if t_sim <= 0.0 then
    invalid_arg
      (Printf.sprintf "Fixed_solver.solve: t_sim <= 0 (component %d)"
         p.comp.Locality.id);
  let channels = p.channels and cids = p.cids and free_ids = p.free_ids in
  let n_rows = Array.length cids in
  let nv = Array.length free_ids in
  let scratch = Array.make p.env_size 0.0 in
  List.iter (fun (v, x) -> scratch.(v) <- x) p.pinned;
  let row_domains = if n_rows < par_threshold then 1 else domains in
  (* sequential residual sweeps run on the packed SoA batch: one flat
     program over a reusable float64 buffer, bitwise-identical to the
     per-row kernel dispatch it replaces *)
  let out = Expr.Batch.create_buffer n_rows in
  let load x = Array.iteri (fun k v -> scratch.(v) <- x.(k)) free_ids in
  let residual_ext x =
    load x;
    if row_domains = 1 then begin
      Expr.Batch.eval p.res_batch ~env:scratch ~out;
      Array.init n_rows (fun i ->
          (Bigarray.Array1.unsafe_get out i *. t_sim)
          -. alpha.(Array.unsafe_get cids i))
    end
    else begin
      let r = Array.make n_rows 0.0 in
      Qturbo_par.Pool.parallel_for ~domains:row_domains ~total:n_rows (fun i ->
          let cid = Array.unsafe_get cids i in
          r.(i) <-
            (Instruction.eval_channel channels.(cid) ~env:scratch *. t_sim)
            -. alpha.(cid));
      r
    end
  in
  let cost x =
    if row_domains = 1 then begin
      (* allocation-free: square the rows straight out of the batch
         buffer, accumulating in row order like the array fold did *)
      load x;
      Expr.Batch.eval p.res_batch ~env:scratch ~out;
      let acc = ref 0.0 in
      for i = 0 to n_rows - 1 do
        let ri =
          (Bigarray.Array1.unsafe_get out i *. t_sim)
          -. alpha.(Array.unsafe_get cids i)
        in
        acc := !acc +. (ri *. ri)
      done;
      !acc
    end
    else begin
      let r = residual_ext x in
      Array.fold_left (fun acc ri -> acc +. (ri *. ri)) 0.0 r
    end
  in
  (* magnitude pre-fit: van-der-Waals amplitudes are homogeneous in the
     coordinates, so a single uniform rescale of the initial layout finds
     the right magnitude basin before LM refines the shape *)
  let scaled s = Array.map (fun x -> s *. x) p.x_init in
  let prefit =
    Scalar.golden_min ~f:(fun ls -> cost (scaled (exp ls))) ~lo:(-3.0) ~hi:3.0 ()
  in
  let prefit_failures =
    if prefit.Scalar.converged then []
    else
      [
        Qturbo_resilience.Failure.make ~component:p.comp.Locality.id
          ~site:"fixed-solve" ~stage:"prefit" ~fatal:false
          ~class_:Qturbo_resilience.Failure.Non_convergence
          (Printf.sprintf
             "magnitude pre-fit stopped after %d iterations above tolerance"
             prefit.Scalar.iterations);
      ]
  in
  let x0_ext = scaled (exp prefit.Scalar.argmin) in
  let nnz = Array.length p.nonzero_derivs in
  let jac_domains = if nnz < par_threshold then 1 else domains in
  (* exact symbolic Jacobian; LM runs in external coordinates (position
     boxes are wide, so iterates stay interior) and the result is clamped,
     any clamping error landing in eps2.  Both step solvers take the
     same CSR Jacobian: the structure comes from the prepared template
     and only its value array is refilled (slot [t] is triple [t]); no
     dense matrix is ever allocated. *)
  let csr = Csr.of_row_lists ~cols:nv p.jac_row_slots in
  let values = Csr.values csr in
  let jacobian x =
    load x;
    Qturbo_par.Pool.parallel_for ~domains:jac_domains ~total:nnz (fun t ->
        let _, _, d = Array.unsafe_get p.nonzero_derivs t in
        values.(t) <- Expr.eval_kernel d ~env:scratch *. t_sim);
    csr
  in
  let report, solve_failures =
    if nv < sparse_threshold then begin
      let outcome =
        Qturbo_resilience.Supervisor.solve sup ~site:"fixed-solve"
          ~component:p.comp.Locality.id
          ~jacobian:(fun x -> Objective.Csr (jacobian x))
          ~bounds:p.bounds residual_ext x0_ext
      in
      ( outcome.Qturbo_resilience.Supervisor.report,
        outcome.Qturbo_resilience.Supervisor.failures )
    end
    else begin
      (* Large components bypass the escalation ladder: Nelder–Mead is
         skipped above ~40 dimensions anyway and a multistart over
         thousands of coordinates would dwarf the compile.  The
         supervisor still contributes its wall-clock deadline; a hard
         failure is surfaced as a non-fatal record (the clamped pre-fit
         layout is returned, its error landing in eps2).  Injected
         faults do not reach this path — fault-injection drills run at
         Fig. 3 scale, below [sparse_threshold]. *)
      let options =
        {
          Levenberg_marquardt.default_options with
          deadline = Qturbo_resilience.Supervisor.deadline sup;
        }
      in
      let report =
        Levenberg_marquardt.minimize_sparse ~options ~jacobian residual_ext
          x0_ext
      in
      let failures =
        Option.to_list
          (Option.map
             (fun class_ ->
               Qturbo_resilience.Failure.make ~component:p.comp.Locality.id
                 ~site:"fixed-solve" ~stage:"lm-sparse" ~fatal:false ~class_
                 (Printf.sprintf
                    "sparse LM position solve failed with non-finite cost \
                     after %d iterations"
                    report.Objective.iterations))
             (Qturbo_resilience.Supervisor.classify_report report))
      in
      (report, failures)
    end
  in
  let x_ext =
    Array.mapi (fun k x -> Bounds.clamp p.bounds.(k) x) report.Objective.x
  in
  let final = residual_ext x_ext in
  let eps2 = Array.fold_left (fun acc r -> acc +. Float.abs r) 0.0 final in
  let free_assignments = List.init nv (fun k -> (free_ids.(k), x_ext.(k))) in
  ( { assignments = free_assignments @ p.pinned; eps2 },
    prefit_failures @ solve_failures )

let solve ?domains ~vars ~channels ~alpha ~t_sim comp =
  fst
    (solve_supervised ?domains ~sup:Qturbo_resilience.Supervisor.none ~alpha
       ~t_sim
       (prepare ~vars ~channels comp))
