open Qturbo_aais
module Failure = Qturbo_resilience.Failure
module Diagnostic = Qturbo_analysis.Diagnostic

type segment_result = {
  env : float array;
  duration : float;
  error_l1 : float;
  eps1 : float;
}

type result = {
  segments : segment_result list;
  t_sim : float;
  error_l1 : float;
  relative_error : float;
  binding_segment : int;
  compile_seconds : float;
  warnings : string list;
  diagnostics : Diagnostic.t list;
  failures : Failure.t list;
  degraded : bool;
  plan_builds : int;
}

let validate ~t_tar ~segments =
  Compile_plan.validate_t_tar ~who:"Td_compiler.compile" t_tar;
  if segments <= 0 then
    raise
      (Diagnostic.Rejected
         [
           Diagnostic.make ~code:"QT016" ~severity:Diagnostic.Error
             ~subject:Diagnostic.System
             ~hint:"discretize into at least one segment"
             (Printf.sprintf "Td_compiler.compile: segments must be >= 1, got %d"
                segments);
         ])

(* Findings repeat across segments (the channels and bounds are shared,
   so a term unsupported in one segment is typically unsupported in
   all): keep the first occurrence of each (code, subject). *)
let dedup diagnostics =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun (d : Diagnostic.t) ->
      let key = (d.code, Diagnostic.subject_to_string d.subject) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    diagnostics

(* A single segment degenerates to a time-independent compile: one
   Hamiltonian, no binding-segment arbitration, no duration stretching.
   Delegate to the static pipeline so the two entry points are the same
   code path — bitwise-identical results by construction (the golden
   equivalence test pins this). *)
let compile_single ?options ?strict ?t_max ~aais ~model ~t_tar ~t0 () =
  let h =
    match Qturbo_models.Model.discretize model ~segments:1 with
    | [ h ] -> h
    | hams ->
        invalid_arg
          (Printf.sprintf "Td_compiler.compile: discretize returned %d segments"
             (List.length hams))
  in
  let r = Compile_plan.compile ?options ?strict ?t_max ~aais ~target:h ~t_tar () in
  {
    segments =
      [
        {
          env = r.Compile_plan.env;
          duration = r.Compile_plan.t_sim;
          error_l1 = r.Compile_plan.error_l1;
          eps1 = r.Compile_plan.eps1;
        };
      ];
    t_sim = r.Compile_plan.t_sim;
    error_l1 = r.Compile_plan.error_l1;
    relative_error = r.Compile_plan.relative_error;
    binding_segment = 0;
    compile_seconds = Qturbo_util.Clock.now () -. t0;
    warnings = r.Compile_plan.warnings;
    diagnostics = r.Compile_plan.diagnostics;
    failures = r.Compile_plan.failures;
    degraded = r.Compile_plan.degraded;
    plan_builds =
      (if r.Compile_plan.plan.cache_hit || r.Compile_plan.plan.store_hit then 0
       else 1);
  }

(* K > 1: the static pipeline's stages, run per segment, sharing the
   runtime-fixed layout.  What §5.3 adds is the union-support plan, the
   binding segment and the per-segment duration stretching. *)
let compile_segments ~options ~strict ?t_max ~aais ~model ~t_tar ~segments ~t0
    () =
  let tau_tar = t_tar /. float_of_int segments in
  let hams = Qturbo_models.Model.discretize model ~segments in
  (* the static path's register-size check, on every segment, before a
     plan is obtained ([t_tar] itself is already validated) *)
  List.iter (fun h -> Compile_plan.validate_target ~aais ~target:h ~t_tar) hams;
  (* one plan for the whole sweep, keyed by the canonical union support
     of every discretized segment.  Keying each segment by its own shape
     forked a second plan whenever a coefficient happened to cancel in
     one segment (the mis-chain quirk: K ≡ 2 mod 4 discretizations hit
     s = 0.75, which zeroes the end-atom Z terms) — the union shape pays
     one front-end build regardless, and segments missing a term simply
     instantiate that row with b_tar = 0.  When no segment drops a term
     the union equals every segment's own support, so the key, plan and
     pulses are bitwise-unchanged. *)
  let plan, provenance =
    Compile_plan.obtain_for_support ~options ~aais
      ~support:
        (List.sort_uniq Qturbo_pauli.Pauli_string.compare
           (List.concat_map Compile_plan.support_of_target hams))
  in
  let device = plan.Compile_plan.device in
  let channels = device.Compile_plan.channels in
  let run = Compile_plan.start ~options device in
  let domains = options.Compile_plan.domains in
  !Compile_plan.stage_hook "precheck";
  let diagnostics =
    dedup
      (List.concat_map
         (Compile_plan.diagnose ?t_max ~aais ~plan ~t_tar:tau_tar)
         hams)
  in
  Compile_plan.enforce run ~strict diagnostics;
  let systems =
    List.map
      (fun h ->
        Linear_system.instantiate plan.Compile_plan.skeleton ~target:h
          ~t_tar:tau_tar)
      hams
  in
  !Compile_plan.stage_hook "linear-solve";
  let solutions =
    Qturbo_par.Pool.parallel_map_list ~domains ~chunk:1
      (Compile_plan.linear_solve options)
      systems
  in
  let alphas =
    Array.of_list
      (List.map (fun s -> s.Qturbo_linalg.Sparse_solve.x) solutions)
  in
  let eps1s =
    Array.of_list
      (List.map (fun s -> s.Qturbo_linalg.Sparse_solve.residual_l1) solutions)
  in
  (* dynamic bottleneck time per segment; failures are returned (not
     accumulated into a shared ref) because the sweep runs on the pool *)
  let dyn_time alpha =
    let t, fs =
      List.fold_left
        (fun (acc, fs) p ->
          let t, f = Compile_plan.component_min_time run ~alpha p in
          (Float.max acc t, fs @ f))
        (Compile_plan.time_floor, [])
        device.Compile_plan.prepared
    in
    (Compile_plan.padded options t, fs)
  in
  let t_dyn_pairs =
    Compile_plan.guarded_sweep run ~site:"min-time" ~domains dyn_time
      (Array.to_list alphas)
  in
  let t_dyn = Array.of_list (List.map fst t_dyn_pairs) in
  let fixed = Compile_plan.fixed_channels device in
  (* binding segment: largest fixed-channel amplitude demand α/T *)
  let demand s =
    let d = ref 0.0 in
    Array.iteri
      (fun cid is_fixed ->
        if is_fixed then
          d := Float.max !d (Float.abs alphas.(s).(cid) /. t_dyn.(s)))
      fixed;
    !d
  in
  let binding_segment = ref 0 in
  for s = 1 to segments - 1 do
    if demand s > demand !binding_segment then binding_segment := s
  done;
  let sb = !binding_segment in
  let fixed_prepared, dynamic_prepared =
    List.partition
      (function Compile_plan.Fixed _ -> true | Compile_plan.Dynamic _ -> false)
      device.Compile_plan.prepared
  in
  (* the shared layout, solved against the binding segment *)
  let layout =
    Compile_plan.constraint_loop run ~aais ~vars:device.Compile_plan.vars
      ~alpha:alphas.(sb) ~t_start:t_dyn.(sb) fixed_prepared
  in
  (* the shared layout's amplitude per fixed channel, evaluated once —
     every segment reads the same values *)
  let fixed_val =
    Array.mapi
      (fun cid is_fixed ->
        if is_fixed then
          Instruction.eval_channel channels.(cid) ~env:layout.Compile_plan.env
        else 0.0)
      fixed
  in
  (* per-segment duration: stretched so the shared layout integrates to
     the segment's required B, never faster than its dynamic bottleneck *)
  let duration s =
    let t_fixed = ref 0.0 in
    Array.iteri
      (fun cid is_fixed ->
        let amp = fixed_val.(cid) in
        if is_fixed && Float.abs amp > 1e-12 then
          t_fixed := Float.max !t_fixed (alphas.(s).(cid) /. amp))
      fixed;
    let t = Float.max t_dyn.(s) !t_fixed in
    if s = sb then Float.max t layout.Compile_plan.t_sim else t
  in
  let solve_segment (s, ls) =
    let t_s = duration s in
    let alpha =
      if options.Compile_plan.refine then
        Compile_plan.refined_alpha ~fixed
          ~contribution:(fun cid coeff -> coeff *. fixed_val.(cid) *. t_s)
          ls
      else alphas.(s)
    in
    let env = Array.copy layout.Compile_plan.env in
    let _, failures =
      Compile_plan.solve_components run ~env ~alpha ~t_sim:t_s dynamic_prepared
    in
    let achieved =
      Array.map
        (fun (c : Instruction.channel) -> Instruction.eval_channel c ~env *. t_s)
        channels
    in
    ( {
        env;
        duration = t_s;
        error_l1 = Linear_system.residual_l1 ls ~alpha:achieved;
        eps1 = eps1s.(s);
      },
      failures )
  in
  (* an injected [segment-loop] deadline (or a truly expired wall clock)
     gets one classified pipeline record; the per-component records from
     the short-circuiting supervised solves carry the detail *)
  let segment_loop_expired =
    Compile_plan.expiry run ~site:"segment-loop"
      "deadline expired entering the segment sweep"
  in
  (* segments only read the shared layout; solve them on the pool *)
  let segment_pairs =
    Compile_plan.guarded_sweep run ~site:"segment-loop" ~domains solve_segment
      (List.mapi (fun s ls -> (s, ls)) systems)
  in
  let segment_results = List.map fst segment_pairs in
  let error_l1 =
    List.fold_left
      (fun acc (r : segment_result) -> acc +. r.error_l1)
      0.0 segment_results
  in
  (* failures, in pipeline order: evolution-time search, the binding
     layout's constraint loop, then the segment sweep (segment order —
     the pool collects by index) *)
  let failures =
    List.concat_map snd t_dyn_pairs
    @ layout.Compile_plan.solve_failures
    @ Option.to_list layout.Compile_plan.exhausted
    @ segment_loop_expired
    @ List.concat_map snd segment_pairs
  in
  let degraded = Compile_plan.conclude run failures in
  {
    segments = segment_results;
    t_sim =
      List.fold_left (fun acc r -> acc +. r.duration) 0.0 segment_results;
    error_l1;
    relative_error = Compile_plan.relative_error ~error_l1 systems;
    binding_segment = sb;
    compile_seconds = Qturbo_util.Clock.now () -. t0;
    warnings = Compile_plan.warnings run;
    diagnostics;
    failures;
    degraded;
    plan_builds = (if provenance = Compile_plan.Built then 1 else 0);
  }

let compile ?(options = Compile_plan.default_options) ?(strict = true) ?t_max
    ~aais ~model ~t_tar ~segments () =
  validate ~t_tar ~segments;
  let t0 = Qturbo_util.Clock.now () in
  if segments = 1 then
    compile_single ~options ~strict ?t_max ~aais ~model ~t_tar ~t0 ()
  else compile_segments ~options ~strict ?t_max ~aais ~model ~t_tar ~segments ~t0 ()
