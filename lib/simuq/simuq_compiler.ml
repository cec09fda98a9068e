open Qturbo_optim

type options = {
  starts : int;
  accept_relative_error : float;
  t_max : float;
  max_evaluations_per_start : int;
  time_budget_seconds : float;
  seed : int64;
}

let default_options =
  {
    starts = 8;
    accept_relative_error = 2.0;
    t_max = 10.0;
    max_evaluations_per_start = 60_000;
    time_budget_seconds = 120.0;
    seed = 20260706L;
  }

type result = {
  success : bool;
  env : float array;
  t_sim : float;
  error_l1 : float;
  relative_error : float;
  indicators : bool array;
  starts_used : int;
  compile_seconds : float;
}

type attempt = {
  a_x : float array;
  a_error : float;
  a_indicators : bool array;
}

let compile ?(options = default_options) ~aais ~target ~t_tar () =
  if t_tar <= 0.0 then invalid_arg "Simuq_compiler.compile: t_tar <= 0";
  let t0 = Qturbo_util.Clock.now () in
  let sys = Global_system.build ~aais ~target ~t_tar in
  let rng = Qturbo_util.Rng.create ~seed:options.seed in
  let bounds = Global_system.bounds sys ~t_max:options.t_max in
  let b_norm = Float.max 1e-300 (Global_system.b_norm1 sys) in
  let n_instr = Global_system.n_instructions sys in
  (* the indicator search space grows with the instruction count, and
     SimuQ explores it by independent trials: scale the trial budget with
     system size *)
  let starts = Int.max options.starts (aais.Qturbo_aais.Aais.n_qubits / 2) in
  let vars = Qturbo_aais.Aais.variables aais in
  let controllable =
    Array.of_list
      (List.map
         (fun (instr : Qturbo_aais.Instruction.t) ->
           List.exists
             (fun v -> Qturbo_aais.Variable.is_dynamic vars.(v))
             instr.Qturbo_aais.Instruction.variables)
         aais.Qturbo_aais.Aais.instructions)
  in
  let n_controllable =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 controllable
  in
  let best = ref None in
  let starts_used = ref 0 in
  let out_of_budget () =
    Qturbo_util.Clock.now () -. t0 > options.time_budget_seconds
  in
  (try
     for start = 0 to starts - 1 do
       if out_of_budget () then raise Exit;
       incr starts_used;
       (* indicator sampling: only instructions with runtime-dynamic
          variables are switchable (a van-der-Waals interaction is always
          on).  Even starts keep everything on; odd starts explore the
          binary dimension by dropping a couple of controllable
          instructions *)
       let p_off =
         Float.min 0.15 (2.0 /. float_of_int (Int.max 1 n_controllable))
       in
       let indicators =
         Array.init n_instr (fun i ->
             (not controllable.(i))
             || start mod 2 = 0
             || Qturbo_util.Rng.float rng >= p_off)
       in
       let residual = Global_system.residual sys ~indicators in
       let x0 = Global_system.initial_guess sys ~rng ~t_max:options.t_max in
       (* SimuQ treats the evolution time as a feasibility constraint, not
          an objective: each trial commits to a sampled T (log-uniform over
          the window) and solves the amplitudes for it; trials whose T is
          below the feasible minimum burn their budget and fail *)
       let n_t = Array.length x0 - 1 in
       let t_choice =
         exp
           (Qturbo_util.Rng.uniform rng
              ~lo:(log (0.1 *. options.t_max))
              ~hi:(log options.t_max))
       in
       x0.(n_t) <- t_choice;
       let bounds = Array.copy bounds in
       bounds.(n_t) <- Bounds.make ~lo:t_choice ~hi:t_choice;
       let transform = Bounds.transform bounds in
       (* SciPy-least_squares-like configuration: 3-point finite
          differences and coarse stopping tolerances (SimuQ trades
          solution polish for any feasible point) *)
       (* the solver accepts the first iterate inside SimuQ's tolerance
          rather than polishing to the least-squares optimum *)
       let l1_target = options.accept_relative_error /. 100.0 *. b_norm in
       let accept_residual r =
         Array.fold_left (fun acc ri -> acc +. Float.abs ri) 0.0 r <= l1_target
       in
       let lm_options =
         {
           Levenberg_marquardt.default_options with
           max_evaluations = options.max_evaluations_per_start;
           max_iterations = 2000;
           ftol = 1e-4;
           xtol = 1e-7;
           accept_residual = Some accept_residual;
           (* a start begun before the budget ran out stops at it *)
           deadline = Some (t0 +. options.time_budget_seconds);
         }
       in
       let wrapped = Bounds.wrap_residual transform residual in
       let report =
         Levenberg_marquardt.minimize ~options:lm_options
           ~jacobian:(fun x ->
             Objective.Dense (Numeric_jacobian.central wrapped x))
           wrapped
           (Bounds.to_internal transform x0)
       in
       let x = Bounds.of_internal transform report.Objective.x in
       let err = Global_system.error_l1 sys ~indicators x in
       let better =
         match !best with None -> true | Some b -> err < b.a_error
       in
       if better then
         best := Some { a_x = x; a_error = err; a_indicators = indicators };
       if err /. b_norm *. 100.0 <= options.accept_relative_error then
         raise Exit
     done
   with Exit -> ());
  match !best with
  | None ->
      {
        success = false;
        env = [||];
        t_sim = Float.nan;
        error_l1 = Float.nan;
        relative_error = Float.nan;
        indicators = [||];
        starts_used = !starts_used;
        compile_seconds = Qturbo_util.Clock.now () -. t0;
      }
  | Some { a_x; a_error; a_indicators } ->
      let env, t_sim = Global_system.split sys a_x in
      let relative_error = a_error /. b_norm *. 100.0 in
      {
        success = relative_error <= options.accept_relative_error;
        env;
        t_sim;
        error_l1 = a_error;
        relative_error;
        indicators = a_indicators;
        starts_used = !starts_used;
        compile_seconds = Qturbo_util.Clock.now () -. t0;
      }
