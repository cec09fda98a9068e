open Qturbo_aais
open Qturbo_optim

type classification =
  | Const_channels
  | Linear of { var : int; slopes : (int * float) list }
  | Polar of {
      amp : int;
      phase : int;
      cos_channels : (int * float) list;
      sin_channels : (int * float) list;
    }
  | Fixed_vars
  | Generic

type solution = { assignments : (int * float) list; eps2 : float }

let classify ~vars ~channels (comp : Locality.component) =
  let has_fixed =
    List.exists (fun v -> Variable.is_fixed vars.(v)) comp.Locality.var_ids
  in
  if has_fixed then Fixed_vars
  else
    match comp.Locality.var_ids with
    | [] -> Const_channels
    | [ v ] ->
        let slopes =
          List.filter_map
            (fun cid ->
              match channels.(cid).Instruction.hint with
              | Instruction.Hint_linear { var; slope } when var = v ->
                  Some (cid, slope)
              | Instruction.Hint_linear _ | Instruction.Hint_polar_cos _
              | Instruction.Hint_polar_sin _ | Instruction.Hint_fixed
              | Instruction.Hint_generic ->
                  None)
            comp.Locality.channel_ids
        in
        if List.length slopes = List.length comp.Locality.channel_ids then
          Linear { var = v; slopes }
        else Generic
    | [ v1; v2 ] -> (
        let cos_channels = ref [] and sin_channels = ref [] in
        let consistent = ref true in
        let amp = ref (-1) and phase = ref (-1) in
        let note_pair a p =
          if !amp = -1 then begin
            amp := a;
            phase := p
          end
          else if !amp <> a || !phase <> p then consistent := false
        in
        List.iter
          (fun cid ->
            match channels.(cid).Instruction.hint with
            | Instruction.Hint_polar_cos { amp = a; phase = p; scale } ->
                note_pair a p;
                cos_channels := (cid, scale) :: !cos_channels
            | Instruction.Hint_polar_sin { amp = a; phase = p; scale } ->
                note_pair a p;
                sin_channels := (cid, scale) :: !sin_channels
            | Instruction.Hint_linear _ | Instruction.Hint_fixed
            | Instruction.Hint_generic ->
                consistent := false)
          comp.Locality.channel_ids;
        let pair_ok =
          !consistent && !amp >= 0
          && List.sort Int.compare [ !amp; !phase ]
             = List.sort Int.compare [ v1; v2 ]
        in
        if pair_ok then
          Polar
            {
              amp = !amp;
              phase = !phase;
              cos_channels = List.rev !cos_channels;
              sin_channels = List.rev !sin_channels;
            }
        else Generic)
    | _ :: _ :: _ :: _ -> Generic

(* Least-squares fit of a single scaled unknown over [(cid, k_c)]
   channels: y* minimising Σ (k_c·y − α_c)². *)
let fit_scaled ~alpha channels =
  let num =
    List.fold_left (fun acc (cid, k) -> acc +. (k *. alpha.(cid))) 0.0 channels
  in
  let den = List.fold_left (fun acc (_, k) -> acc +. (k *. k)) 0.0 channels in
  if den = 0.0 then 0.0 else num /. den

let time_for_bound ~(bound : Bounds.bound) needed =
  (* smallest T > 0 such that needed / T lies inside [bound] *)
  if needed = 0.0 then 0.0
  else if needed > 0.0 then
    if bound.Bounds.hi > 0.0 then needed /. bound.Bounds.hi else infinity
  else if bound.Bounds.lo < 0.0 then needed /. bound.Bounds.lo
  else infinity

let polar_fit ~alpha ~cos_channels ~sin_channels =
  let a_star = fit_scaled ~alpha cos_channels in
  let b_star = fit_scaled ~alpha sin_channels in
  (* a_star = ΩT·cos φ, b_star = ΩT·sin φ *)
  let omega_t = sqrt ((a_star *. a_star) +. (b_star *. b_star)) in
  let phi = if omega_t = 0.0 then 0.0 else atan2 b_star a_star in
  (omega_t, phi)

(* ---- prepared components ---------------------------------------- *)

(* Everything derivable from (vars, channels, comp, classification)
   alone — i.e. independent of α and T_sim — is derived once here and
   reused across every probe of the T-bisection, every constraint
   iteration and every refinement pass.  A [prepared] value holds the
   kernels and bounds it reads, not the arrays it came from, so a plan
   rebound onto an identical device uses it unchanged.  It is
   immutable, so it may be shared freely across pool domains (the
   generic path allocates its env per solve; the closed forms use a
   per-domain scratch env). *)

type generic_ctx = {
  g_var_ids : int array;
  g_transform : Bounds.transform;
  g_x0 : float array; (* internal coordinates *)
}

type prep_case =
  | P_const of (int * float) list (* (cid, expr value) — closed exprs *)
  | P_linear of Bounds.bound (* the driven variable's *)
  | P_polar of Bounds.bound * Bounds.bound (* amplitude's, phase's *)
  | P_generic of generic_ctx
  | P_fixed (* runtime-fixed: use Fixed_solver *)

type prepared = {
  p_comp : Locality.component;
  p_cls : classification;
  p_cids : int array;
  p_kernels : Expr.kernel array; (* the channels' kernels, in [p_cids] order *)
  p_env_size : int; (* max variable id of the component + 1 *)
  p_case : prep_case;
}

let classification_of p = p.p_cls

let prepare ~vars ~channels comp classification =
  let case =
    match classification with
    | Fixed_vars -> P_fixed
    | Const_channels ->
        P_const
          (List.map
             (fun cid ->
               (cid, Instruction.eval_channel channels.(cid) ~env:[||]))
             comp.Locality.channel_ids)
    | Linear { var; _ } -> P_linear vars.(var).Variable.bound
    | Polar { amp; phase; _ } ->
        P_polar (vars.(amp).Variable.bound, vars.(phase).Variable.bound)
    | Generic ->
        let var_ids = Array.of_list comp.Locality.var_ids in
        let bounds = Array.map (fun v -> vars.(v).Variable.bound) var_ids in
        let transform = Bounds.transform bounds in
        let x0_ext = Array.map (fun v -> vars.(v).Variable.init) var_ids in
        P_generic
          {
            g_var_ids = var_ids;
            g_transform = transform;
            g_x0 = Bounds.to_internal transform x0_ext;
          }
  in
  let cids = Array.of_list comp.Locality.channel_ids in
  {
    p_comp = comp;
    p_cls = classification;
    p_cids = cids;
    p_kernels = Array.map (fun cid -> channels.(cid).Instruction.kernel) cids;
    p_env_size =
      List.fold_left (fun acc v -> Int.max acc (v + 1)) 1 comp.Locality.var_ids;
    p_case = case;
  }

(* ---- generic path: bounded LM feasibility + bisection over T ---- *)

let generic_residual ~alpha ~t_sim p g =
  let kernels = p.p_kernels and cids = p.p_cids in
  let var_ids = g.g_var_ids in
  let scratch = Array.make p.p_env_size 0.0 in
  fun x ->
    Array.iteri (fun k v -> scratch.(v) <- x.(k)) var_ids;
    Array.init (Array.length cids) (fun i ->
        (Expr.eval_kernel kernels.(i) ~env:scratch *. t_sim)
        -. alpha.(cids.(i)))

let generic_solution_of_report ~alpha ~t_sim p g (report : Objective.report) =
  let var_ids = g.g_var_ids in
  let nv = Array.length var_ids in
  let x_ext = Bounds.of_internal g.g_transform report.Objective.x in
  let assignments = List.init nv (fun k -> (var_ids.(k), x_ext.(k))) in
  let residual = generic_residual ~alpha ~t_sim p g in
  let final = residual x_ext in
  let eps2 = Array.fold_left (fun acc r -> acc +. Float.abs r) 0.0 final in
  { assignments; eps2 }

let generic_solve_supervised ~sup ~alpha ~t_sim p g =
  let residual = generic_residual ~alpha ~t_sim p g in
  let outcome =
    Qturbo_resilience.Supervisor.solve sup ~site:"local-solve"
      ~component:p.p_comp.Locality.id
      (Bounds.wrap_residual g.g_transform residual)
      g.g_x0
  in
  ( generic_solution_of_report ~alpha ~t_sim p g
      outcome.Qturbo_resilience.Supervisor.report,
    outcome.Qturbo_resilience.Supervisor.failures )

let generic_solve_prepared ~alpha ~t_sim p g =
  let residual = generic_residual ~alpha ~t_sim p g in
  let report =
    Levenberg_marquardt.minimize
      (Bounds.wrap_residual g.g_transform residual)
      g.g_x0
  in
  generic_solution_of_report ~alpha ~t_sim p g report

let component_alpha_scale ~alpha comp =
  List.fold_left
    (fun acc cid -> Float.max acc (Float.abs alpha.(cid)))
    0.0 comp.Locality.channel_ids

let generic_min_time ~alpha p g =
  if component_alpha_scale ~alpha p.p_comp = 0.0 then (0.0, [])
  else begin
    let feasible t =
      let scale = Float.max 1.0 (component_alpha_scale ~alpha p.p_comp) in
      let { eps2; _ } = generic_solve_prepared ~alpha ~t_sim:t p g in
      eps2 <= 1e-7 *. scale
    in
    (* find a feasible upper bracket by doubling *)
    let rec grow t tries =
      if tries = 0 then None
      else if feasible t then Some t
      else grow (2.0 *. t) (tries - 1)
    in
    match grow 1e-3 50 with
    | None ->
        ( infinity,
          [
            Qturbo_resilience.Failure.make ~component:p.p_comp.Locality.id
              ~site:"min-time" ~stage:"" ~fatal:false
              ~class_:Qturbo_resilience.Failure.Non_convergence
              "no feasible evolution time found by bracket doubling";
          ] )
    | Some hi ->
        let r =
          Scalar.bisect_predicate ~tol:1e-6 ~f:feasible ~lo:(hi /. 2.0) ~hi ()
        in
        let failures =
          if r.Scalar.converged then []
          else
            [
              Qturbo_resilience.Failure.make ~component:p.p_comp.Locality.id
                ~site:"min-time" ~stage:"" ~fatal:false
                ~class_:Qturbo_resilience.Failure.Non_convergence
                (Printf.sprintf
                   "T bisection stopped after %d iterations above tolerance"
                   r.Scalar.iterations);
            ]
        in
        (r.Scalar.root, failures)
  end

(* Closed-form cases (const/linear/polar) are direct arithmetic that
   cannot diverge; only the generic path consults the supervisor.  Its
   feasibility probes run plain LM — the ladder guards the final
   solve, not every bisection probe. *)
let min_time_supervised ~sup ~alpha p =
  match (p.p_cls, p.p_case) with
  | Fixed_vars, _ -> (0.0, [])
  | Const_channels, P_const ks ->
      (* expr·T = α: every channel pins T; take the largest demand (smaller
         demands become approximation error, reported by solve_at) *)
      ( List.fold_left
          (fun acc (cid, k) ->
            let a = alpha.(cid) in
            if a = 0.0 || k = 0.0 then acc else Float.max acc (a /. k))
          0.0 ks,
        [] )
  | Linear { slopes; _ }, P_linear bound ->
      let needed = fit_scaled ~alpha slopes in
      (time_for_bound ~bound needed, [])
  | Polar { cos_channels; sin_channels; _ }, P_polar (amp_bound, _) ->
      let omega_t, _ = polar_fit ~alpha ~cos_channels ~sin_channels in
      if omega_t = 0.0 then (0.0, [])
      else
        let hi = amp_bound.Bounds.hi in
        ((if hi > 0.0 then omega_t /. hi else infinity), [])
  | Generic, P_generic g ->
      if
        Qturbo_resilience.Supervisor.site_expired sup ~site:"min-time"
          ~component:p.p_comp.Locality.id
      then
        ( infinity,
          [
            Qturbo_resilience.Failure.make ~component:p.p_comp.Locality.id
              ~site:"min-time" ~stage:"" ~fatal:false
              ~class_:Qturbo_resilience.Failure.Deadline_expired
              "expired before evolution-time search";
          ] )
      else generic_min_time ~alpha p g
  | (Const_channels | Linear _ | Polar _ | Generic), _ -> assert false

(* Per-domain zeroed env for the closed forms' eps2: prepared
   components are shared across pool domains, so the scratch must be
   domain-local (the pattern [Expr.Batch] uses for its stack). *)
let eps2_env_key = Domain.DLS.new_key (fun () -> ref [||])

(* L1 residual of a closed-form assignment: set the component's own
   slots, accumulate |k·T − α| in channel order, clear the slots.  The
   component's kernels read only its own variables, and no pool call
   runs between the set and the clear, so the env is all zeros outside
   this call. *)
let eval_eps2 ~alpha ~t_sim p assignments =
  let cell = Domain.DLS.get eps2_env_key in
  if Array.length !cell < p.p_env_size then
    cell := Array.make (Int.max p.p_env_size (2 * Array.length !cell)) 0.0;
  let env = !cell in
  List.iter (fun (v, x) -> env.(v) <- x) assignments;
  let acc = ref 0.0 in
  Array.iteri
    (fun i cid ->
      acc :=
        !acc
        +. Float.abs
             ((Expr.eval_kernel p.p_kernels.(i) ~env *. t_sim) -. alpha.(cid)))
    p.p_cids;
  List.iter (fun (v, _) -> env.(v) <- 0.0) assignments;
  !acc

let solve_supervised ~sup ~alpha ~t_sim p =
  if t_sim <= 0.0 then
    invalid_arg
      (Printf.sprintf "Local_solver.solve_at: t_sim <= 0 (component %d)"
         p.p_comp.Locality.id);
  match (p.p_cls, p.p_case) with
  | Fixed_vars, _ ->
      invalid_arg
        (Printf.sprintf
           "Local_solver.solve_at: component %d is runtime-fixed (use \
            Fixed_solver)"
           p.p_comp.Locality.id)
  | Const_channels, P_const ks ->
      let eps2 =
        List.fold_left
          (fun acc (cid, k) -> acc +. Float.abs ((k *. t_sim) -. alpha.(cid)))
          0.0 ks
      in
      ({ assignments = []; eps2 }, [])
  | Linear { var; slopes }, P_linear bound ->
      let needed = fit_scaled ~alpha slopes in
      let value = Bounds.clamp bound (needed /. t_sim) in
      let assignments = [ (var, value) ] in
      ({ assignments; eps2 = eval_eps2 ~alpha ~t_sim p assignments }, [])
  | ( Polar { amp; phase; cos_channels; sin_channels },
      P_polar (amp_bound, phase_bound) ) ->
      let omega_t, phi = polar_fit ~alpha ~cos_channels ~sin_channels in
      let omega = Bounds.clamp amp_bound (omega_t /. t_sim) in
      let phi = Bounds.clamp phase_bound phi in
      let assignments = [ (amp, omega); (phase, phi) ] in
      ({ assignments; eps2 = eval_eps2 ~alpha ~t_sim p assignments }, [])
  | Generic, P_generic g -> generic_solve_supervised ~sup ~alpha ~t_sim p g
  | (Const_channels | Linear _ | Polar _ | Generic), _ -> assert false

(* ---- unprepared entry points (tests, one-off probes) -------------- *)

let none = Qturbo_resilience.Supervisor.none

let min_time ~vars ~channels ~alpha comp classification =
  fst
    (min_time_supervised ~sup:none ~alpha
       (prepare ~vars ~channels comp classification))

let solve_at ~vars ~channels ~alpha ~t_sim comp classification =
  fst
    (solve_supervised ~sup:none ~alpha ~t_sim
       (prepare ~vars ~channels comp classification))
