(* qturbo: command-line front end to the compiler.

   Examples:
     qturbo compile --model ising-chain -n 5
     qturbo compile --model ising-cycle -n 12 --device aquila-fig6a \
       --j 0.157 --h 0.785 --t-tar 1.0 --show-pulse
     qturbo compile --model heis-chain -n 8 --backend heisenberg
     qturbo compile --model mis-chain -n 5 --segments 4
     qturbo compile --model ising-chain -n 8 --baseline
     qturbo compile --model ising-chain -n 5 --best-effort --deadline 30
     qturbo check --model ising-cycle -n 5 --backend heisenberg
     qturbo check --hamiltonian '-1.0*Z0 Z1' --json
     qturbo models
     qturbo devices *)

open Cmdliner
open Qturbo_aais
module Backend = Qturbo_backend.Backend

(* [run] compiles against the raw preset (no scaling-study window
   widening, no model-driven geometry switch) — it keeps its own preset
   table; every other command resolves devices through the backend
   registry. *)
let run_device_presets =
  [
    ("aquila-paper", Device.aquila_paper);
    ("aquila", Device.aquila);
    ("aquila-fig6a", Device.aquila_fig6a);
    ("aquila-fig6b", Device.aquila_fig6b);
  ]

(* Model/backend resolution, compile options, static targets, range
   parsing, the check and lint findings and the machine-readable payload
   builders live in {!Qturbo_service.Ops}, shared with the [qturbo
   serve] daemon — a CLI --json invocation and a daemon request are
   byte-identical for the same job by construction. *)
module Ops = Qturbo_service.Ops

let build_model = Ops.build_model
let resolve_model = Ops.resolve_model
let resolve_backend = Ops.resolve_backend

(* ---- persistent plan store -------------------------------------------- *)

(* --plan-store DIR enables the on-disk plan store for this
   invocation. *)
let setup_plan_store plan_store =
  Option.iter (fun dir -> Qturbo_core.Compile_plan.enable_store ~dir) plan_store

let plan_store_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "plan-store" ] ~docv:"DIR"
        ~doc:
          "Persist each compile plan's support and linear-system skeleton \
           under $(docv) and reuse them across processes: a cold invocation \
           whose structural key is already stored checks the entry against \
           its own device and builds the rest.  Entries are keyed by the \
           exact structural key plus a store-format/binary version; any \
           mismatch or corruption falls back to a counted rebuild.  Results \
           are bitwise-identical with the store on or off.")

(* ---- compile ---- *)

let print_store_summary () =
  match Qturbo_core.Compile_plan.store_stats () with
  | None -> ()
  | Some s ->
      Printf.printf
        "store: %d hit(s) / %d miss(es) / %d corrupt / %d version \
         mismatch(es); %d write(s)%s (%s)\n"
        s.Qturbo_store.Plan_store.hits s.Qturbo_store.Plan_store.misses
        s.Qturbo_store.Plan_store.corrupt
        s.Qturbo_store.Plan_store.version_mismatch
        s.Qturbo_store.Plan_store.writes
        (if s.Qturbo_store.Plan_store.write_errors > 0 then
           Printf.sprintf " / %d write error(s)"
             s.Qturbo_store.Plan_store.write_errors
         else "")
        (Option.value (Qturbo_core.Compile_plan.store_dir ()) ~default:"?")

(* The banner of a degraded result names the causes its fatal records
   give: an exhausted constraint loop leaves the layout breaking the
   device's constraints; any other fatal record is a component that
   kept a non-converged solution. *)
let degraded_banner (failures : Qturbo_resilience.Failure.t list) =
  let fatal_sites =
    List.filter_map
      (fun (f : Qturbo_resilience.Failure.t) ->
        if f.Qturbo_resilience.Failure.fatal then
          Some f.Qturbo_resilience.Failure.site
        else None)
      failures
  in
  let layout = List.mem "constraint-loop" fatal_sites in
  let unsolved = List.exists (fun s -> s <> "constraint-loop") fatal_sites in
  let causes =
    (if unsolved || not layout then
       [ "some component kept a non-converged solution" ]
     else [])
    @
    if layout then
      [
        "the constraint loop gave up with the layout still breaking the \
         device's constraints";
      ]
    else []
  in
  Printf.sprintf "DEGRADED: best-effort result; %s (see failure records above)"
    (String.concat " and " causes)

let print_compile_result ~(instance : Backend.instance) ~show_pulse ~ramp
    (r : Qturbo_core.Compiler.result) =
  Printf.printf "compiled in %.2f ms\n" (1000.0 *. r.Qturbo_core.Compiler.compile_seconds);
  Printf.printf "evolution time: %.6f us\n" r.Qturbo_core.Compiler.t_sim;
  Printf.printf "error (L1):     %.6g\n" r.Qturbo_core.Compiler.error_l1;
  Printf.printf "relative error: %.4f %%\n" r.Qturbo_core.Compiler.relative_error;
  Printf.printf "theorem-1 bound %.6g (eps1 %.3g, sum eps2 %.3g)\n"
    r.Qturbo_core.Compiler.theorem1_bound r.Qturbo_core.Compiler.eps1
    r.Qturbo_core.Compiler.eps2_total;
  List.iter (Printf.printf "warning: %s\n") r.Qturbo_core.Compiler.warnings;
  List.iter
    (fun f ->
      Printf.printf "failure: %s\n" (Qturbo_resilience.Failure.to_string f))
    r.Qturbo_core.Compiler.failures;
  if r.Qturbo_core.Compiler.degraded then
    print_endline (degraded_banner r.Qturbo_core.Compiler.failures);
  let p = r.Qturbo_core.Compiler.plan in
  if p.Qturbo_core.Compiler.cache_enabled then
    Printf.printf
      "plan: %s (cache %d hit(s) / %d miss(es)%s; this key %d/%d; build %.2f \
       ms, solve %.2f ms)\n"
      (if p.Qturbo_core.Compiler.cache_hit then "cached"
       else if p.Qturbo_core.Compiler.store_hit then "stored"
       else "built")
      p.Qturbo_core.Compiler.cache_hits p.Qturbo_core.Compiler.cache_misses
      (if p.Qturbo_core.Compiler.cache_discarded > 0 then
         Printf.sprintf " / %d discarded"
           p.Qturbo_core.Compiler.cache_discarded
       else "")
      p.Qturbo_core.Compiler.key_hits p.Qturbo_core.Compiler.key_misses
      (1000.0 *. p.Qturbo_core.Compiler.build_seconds)
      (1000.0 *. p.Qturbo_core.Compiler.solve_seconds)
  else
    Printf.printf "plan: built, cache disabled (build %.2f ms, solve %.2f ms)\n"
      (1000.0 *. p.Qturbo_core.Compiler.build_seconds)
      (1000.0 *. p.Qturbo_core.Compiler.solve_seconds);
  print_store_summary ();
  if show_pulse then begin
    let pulse =
      instance.Backend.extract ~env:r.Qturbo_core.Compiler.env
        ~t_sim:r.Qturbo_core.Compiler.t_sim
    in
    let pulse = if ramp then instance.Backend.ramp pulse else pulse in
    print_string (Backend.pulse_text pulse);
    match Backend.pulse_violations pulse with
    | [] -> print_endline "pulse is executable on this device"
    | vs -> List.iter (Printf.printf "limit violation: %s\n") vs
  end

let setup_logging verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let user_errors f =
  match f () with
  | code -> code
  | exception (Failure msg | Invalid_argument msg) ->
      Printf.eprintf "qturbo: %s\n" msg;
      2
  | exception Qturbo_analysis.Diagnostic.Rejected ds ->
      Printf.eprintf "qturbo: input rejected by the pre-solve analyzer\n";
      List.iter
        (fun d ->
          Printf.eprintf "  %s\n" (Qturbo_analysis.Diagnostic.to_string d))
        ds;
      1
  | exception Qturbo_resilience.Failure.Failed fs ->
      Printf.eprintf
        "qturbo: compilation failed — %d classified failure record(s); rerun \
         with --best-effort for a degraded result\n"
        (List.length fs);
      List.iter
        (fun f ->
          Printf.eprintf "  %s\n" (Qturbo_resilience.Failure.to_string f))
        fs;
      3

let compile_cmd model_name hamiltonian n backend device_name cutoff t_tar j h
    segments
    domains baseline no_refine no_time_opt no_plan_cache plan_store repeat
    best_effort
    deadline show_pulse ramp json verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  setup_plan_store plan_store;
  let model = resolve_model ~hamiltonian ~model_name ~n ~j ~h in
  let n = model.Qturbo_models.Model.n in
  if json && (baseline || Qturbo_models.Model.is_driven model) then
    failwith "--json reports are only available for static qturbo compiles";
  if repeat < 1 then failwith "--repeat must be >= 1";
  (* run the compile [repeat] times in-process and report the last run —
     the cache counters are per-process, so this is how the CI smoke
     observes warm-plan hits from a single invocation *)
  let repeated f =
    for _ = 2 to repeat do ignore (f ()) done;
    f ()
  in
  let options =
    {
      (Ops.options_with ~domains ~best_effort ~deadline ~no_plan_cache) with
      Qturbo_core.Compiler.refine = not no_refine;
      time_opt = not no_time_opt;
    }
  in
  let inst =
    resolve_backend ~backend ~device:device_name ~cutoff ~ramp
      ~model_name:model.Qturbo_models.Model.name ~n
  in
  if Qturbo_models.Model.is_driven model then begin
    let td =
      repeated (fun () ->
          Qturbo_core.Td_compiler.compile ~options ~aais:inst.Backend.aais
            ~model ~t_tar ~segments ())
    in
    Printf.printf "compiled %d segments in %.2f ms\n" segments
      (1000.0 *. td.Qturbo_core.Td_compiler.compile_seconds);
    Printf.printf "total evolution time: %.6f us\n" td.Qturbo_core.Td_compiler.t_sim;
    Printf.printf "relative error: %.4f %%\n"
      td.Qturbo_core.Td_compiler.relative_error;
    List.iteri
      (fun k (s : Qturbo_core.Td_compiler.segment_result) ->
        Printf.printf "  segment %d: %.4f us (error %.4g)\n" k
          s.Qturbo_core.Td_compiler.duration s.Qturbo_core.Td_compiler.error_l1)
      td.Qturbo_core.Td_compiler.segments;
    List.iter
      (fun f ->
        Printf.printf "failure: %s\n"
          (Qturbo_resilience.Failure.to_string f))
      td.Qturbo_core.Td_compiler.failures;
    if td.Qturbo_core.Td_compiler.degraded then
      print_endline (degraded_banner td.Qturbo_core.Td_compiler.failures);
    Printf.printf "plan: %d front-end build(s)\n"
      td.Qturbo_core.Td_compiler.plan_builds;
    0
  end
  else begin
    let target = Ops.static_target model in
    if baseline then begin
      let r =
        Qturbo_simuq.Simuq_compiler.compile ~aais:inst.Backend.aais ~target
          ~t_tar ()
      in
      Printf.printf "baseline: success=%b T=%.4f us error=%.4f%% (%.2f s)\n"
        r.Qturbo_simuq.Simuq_compiler.success
        r.Qturbo_simuq.Simuq_compiler.t_sim
        r.Qturbo_simuq.Simuq_compiler.relative_error
        r.Qturbo_simuq.Simuq_compiler.compile_seconds;
      0
    end
    else if json then begin
      (* the report builder is shared with the daemon, so the printed
         bytes match a `qturbo serve` compile response for the same job *)
      print_endline
        (repeated (fun () ->
             Ops.compile_report_json ~options ~inst ~target ~t_tar ~show_pulse
               ~ramp ()));
      0
    end
    else begin
      let r =
        repeated (fun () ->
            Qturbo_core.Compiler.compile ~options ~aais:inst.Backend.aais
              ~target ~t_tar ())
      in
      print_compile_result ~instance:inst ~show_pulse ~ramp r;
      0
    end
  end

let model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "model"; "m" ] ~docv:"NAME" ~doc:"Benchmark model (see `qturbo models`).")

let hamiltonian_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "hamiltonian"; "H" ] ~docv:"TEXT"
        ~doc:"Target Hamiltonian as text, e.g. 'Z0 Z1 + 0.5*X2' (overrides --model).")

let n_arg =
  Arg.(value & opt int 5 & info [ "qubits"; "n" ] ~docv:"N" ~doc:"Number of qubits/atoms.")

let backend_arg =
  Arg.(
    value & opt string "rydberg"
    & info [ "backend"; "b" ] ~docv:"BACKEND"
        ~doc:"rydberg, heisenberg, or iontrap.")

let device_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "device"; "d" ] ~docv:"DEVICE"
        ~doc:
          "Device preset for backends that declare presets (see `qturbo \
           devices`); rejected on backends without them.")

let cutoff_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cutoff" ] ~docv:"CUTOFF"
        ~doc:
          "Van-der-Waals interaction cutoff for the rydberg backend: \
           $(b,auto) (exact all-pairs channels up to 96 atoms, then a \
           22.5 um neighbor-list cutoff), $(b,all-pairs) (exact at any \
           size), or a positive radius in um.  When pairs are dropped the \
           analyzer reports the truncation-error bound as QT029.")

let t_tar_arg =
  Arg.(
    value & opt float 1.0
    & info [ "t-tar"; "t" ] ~docv:"US" ~doc:"Target evolution time (µs).")

let j_arg =
  Arg.(value & opt float 0.0 & info [ "coupling"; "j" ] ~docv:"J" ~doc:"Coupling strength (0 = model default).")

let h_arg =
  Arg.(
    value & opt float 0.0
    & info [ "field" ] ~docv:"H"
        ~doc:"Transverse-field strength (0 = model default).")

let segments_arg =
  Arg.(
    value & opt int 4
    & info [ "segments" ] ~docv:"K" ~doc:"Piecewise segments for driven models.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the parallel compile pipeline (0 = the \
           QTURBO_DOMAINS / core-count default; 1 = fully sequential).  \
           Output is bitwise-identical for every value.")

let baseline_flag =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Compile with the SimuQ-style baseline instead.")

let no_refine_flag =
  Arg.(value & flag & info [ "no-refine" ] ~doc:"Disable §6.2 iterative refinement.")

let no_time_opt_flag =
  Arg.(value & flag & info [ "no-time-opt" ] ~doc:"Disable §5.1 evolution-time optimisation.")

let no_plan_cache_flag =
  Arg.(
    value & flag
    & info [ "no-plan-cache" ]
        ~doc:
          "Rebuild the structural compile plan (term index, linear-system \
           skeleton, locality decomposition, prepared solver contexts) on \
           every compile instead of reusing the process-wide plan cache.  \
           Results are bitwise-identical either way.")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"R"
        ~doc:
          "Compile R times in one process and report the last run; with the \
           plan cache enabled, runs after the first hit the cached plan \
           (the JSON report's plan_cache counters show it).")

let best_effort_flag =
  Arg.(
    value & flag
    & info [ "best-effort" ]
        ~doc:
          "Return a degraded result (with classified failure records) when a \
           component solve exhausts the resilience escalation ladder, \
           instead of failing the compile.")

let deadline_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the compile; stages past the deadline \
           short-circuit with classified deadline-expired records (0 = no \
           deadline).")

let show_pulse_flag =
  Arg.(value & flag & info [ "show-pulse" ] ~doc:"Print the compiled pulse schedule.")

let ramp_flag =
  Arg.(
    value & flag
    & info [ "ramp" ]
        ~doc:"Apply the hardware ramping post-pass before printing the pulse.")

let verbose_flag =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log the compiler's pipeline stages.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit a machine-readable JSON report instead of text.")

let compile_term =
  Term.(
    const compile_cmd $ model_arg $ hamiltonian_arg $ n_arg $ backend_arg $ device_arg $ cutoff_arg $ t_tar_arg
    $ j_arg $ h_arg $ segments_arg $ domains_arg $ baseline_flag $ no_refine_flag
    $ no_time_opt_flag $ no_plan_cache_flag $ plan_store_arg $ repeat_arg
    $ best_effort_flag
    $ deadline_arg $ show_pulse_flag $ ramp_flag $ json_flag $ verbose_flag)

let compile_info =
  Cmd.info "compile" ~doc:"Compile a benchmark Hamiltonian onto an analog device."

(* ---- check: the pre-solve static analyzer, no compilation ---- *)

(* Test aid: append an effectless channel (with its own fresh variable) to
   the AAIS, the canonical dangling-synthesized-variable defect.  No
   built-in backend has one, so [qturbo check --inject dangling-channel]
   is the only way to see QT005 from the command line. *)
let inject_dangling (aais : Aais.t) =
  (* extend a copy of the pool: the resolved instance is shared with
     every later resolution of the same device *)
  let pool = Variable.copy_pool aais.Aais.pool in
  let v =
    Variable.fresh pool ~name:"dangling" ~kind:Variable.Runtime_dynamic
      ~lo:0.0 ~hi:1.0 ()
  in
  let ch =
    Instruction.channel_of_expr ~cid:(Aais.channel_count aais) ~label:"dangling"
      ~expr:(Expr.var v) ~effects:[] ~hint:Instruction.Hint_generic
  in
  let instr = Instruction.make ~label:"dangling" ~channels:[ ch ] in
  Aais.make
    ~name:(aais.Aais.name ^ "+dangling")
    ~n_qubits:aais.Aais.n_qubits ~pool
    ~instructions:(aais.Aais.instructions @ [ instr ])
    ~check_fixed:aais.Aais.check_fixed ~fingerprint:aais.Aais.fingerprint
    ?truncation:aais.Aais.truncation ()

let check_cmd model_name hamiltonian n backend device_name cutoff t_tar j h
    inject
    json verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  let module D = Qturbo_analysis.Diagnostic in
  let model = resolve_model ~hamiltonian ~model_name ~n ~j ~h in
  let n = model.Qturbo_models.Model.n in
  let inst =
    resolve_backend ~backend ~device:device_name ~cutoff ~ramp:false
      ~model_name:model.Qturbo_models.Model.name ~n
  in
  let aais =
    match inject with
    | None -> inst.Backend.aais
    | Some "dangling-channel" -> inject_dangling inst.Backend.aais
    | Some other -> failwith ("unknown injection: " ^ other)
  in
  let diags =
    Ops.check_diagnostics ~inst ~aais ~target:(Ops.static_target model) ~t_tar
      ()
  in
  if json then print_endline (D.list_to_json diags)
  else begin
    List.iter (fun d -> print_endline (D.to_string d)) diags;
    Printf.printf "%d error(s), %d warning(s)\n"
      (List.length (D.errors diags))
      (List.length (D.warnings diags))
  end;
  if D.has_errors diags then 1 else 0

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"DEFECT"
        ~doc:
          "Seed a known defect before analyzing (test aid); currently only \
           $(b,dangling-channel).")

let check_term =
  Term.(
    const check_cmd $ model_arg $ hamiltonian_arg $ n_arg $ backend_arg
    $ device_arg $ cutoff_arg $ t_tar_arg $ j_arg $ h_arg $ inject_arg
    $ json_flag $ verbose_flag)

let check_info =
  Cmd.info "check"
    ~doc:
      "Statically analyze a Hamiltonian against a device without \
       compiling.  Exits non-zero when error-severity diagnostics are \
       found."

(* ---- lint: kernel IR verifier + plan-invariant linter ---- *)

(* Seeded-defect fixtures for the kernel verifier: hand-assembled IR
   views that trigger exactly one diagnostic each (the codes are the
   public contract the CI smoke asserts).  [Expr.kernel_of_view]
   deliberately skips validation, so these are constructible. *)
let lint_kernel_fixture variant =
  let open Expr in
  match variant with
  | "kernel-underflow" ->
      (* pops two values from an empty stack *)
      Some
        ( "QT017",
          kernel_of_view [| K_binop B_add |] ~consts:[||] ~depth:1 ~max_var:(-1)
        )
  | "kernel-arity" ->
      (* terminates with two values on the stack *)
      Some
        ("QT018", kernel_of_view [| K_var 0; K_var 0 |] ~consts:[||] ~depth:2 ~max_var:0)
  | "kernel-env" ->
      (* reads a variable no environment of this device has *)
      Some
        ("QT019", kernel_of_view [| K_var 9999 |] ~consts:[||] ~depth:1 ~max_var:9999)
  | "kernel-depth" ->
      (* needs two stack slots but declares one *)
      Some
        ( "QT020",
          kernel_of_view
            [| K_var 0; K_var 0; K_binop B_add |]
            ~consts:[||] ~depth:1 ~max_var:0 )
  | "kernel-opcode" ->
      (* an unassigned opcode word *)
      Some
        ( "QT022",
          kernel_of_view
            [| K_unknown { op = 30; arg = 7 }; K_var 0 |]
            ~consts:[||] ~depth:1 ~max_var:0 )
  | _ -> None

(* Seeded-defect copies of a (valid) plan: each corrupts one cross-stage
   invariant.  Plans are immutable records, so the corruption is a copy —
   the original stays sound. *)
let lint_corrupt_plan variant (plan : Qturbo_core.Compile_plan.t) =
  let module CP = Qturbo_core.Compile_plan in
  let d = plan.CP.device in
  match variant with
  | "plan-support" ->
      (* the index no longer leads with the (shortened) support's terms *)
      Some
        ( "QT023",
          { plan with CP.support = (match plan.CP.support with [] -> [] | _ :: tl -> tl) } )
  | "plan-channels" ->
      (* skeleton cells now reference a channel the device lost *)
      Some
        ( "QT024",
          {
            plan with
            CP.device =
              {
                d with
                CP.channels = Array.sub d.CP.channels 0 (Array.length d.CP.channels - 1);
              };
          } )
  | "plan-csr" ->
      (* the first row with two entries names its first channel twice,
         which the greedy solve trusts the gate to refuse; the edit goes
         to a deep copy (the skeleton is shared and immutable through
         its API, so the copy goes through marshaling, as a store entry
         does) *)
      let skeleton : Qturbo_core.Linear_system.skeleton =
        Marshal.from_string (Marshal.to_string plan.CP.skeleton []) 0
      in
      let csr = Qturbo_core.Linear_system.skeleton_csr skeleton in
      let row_ptr = Qturbo_linalg.Csr.row_ptr csr
      and col_idx = Qturbo_linalg.Csr.col_idx csr in
      (match
         List.find_opt
           (fun i -> row_ptr.(i + 1) - row_ptr.(i) >= 2)
           (List.init (Qturbo_linalg.Csr.rows csr) Fun.id)
       with
      | Some i -> col_idx.(row_ptr.(i) + 1) <- col_idx.(row_ptr.(i))
      | None ->
          failwith
            "plan-csr needs a system row fed by two channels; this plan has \
             none");
      Some ("QT024", { plan with CP.skeleton })
  | "plan-dup-channel" ->
      (* the first prepared solver listed twice: its component's channels
         and id appear in two components *)
      let prepared =
        match d.CP.prepared with s :: _ as all -> s :: all | [] -> []
      in
      Some ("QT025", { plan with CP.device = { d with CP.prepared } })
  | _ -> None

let lint_cmd model_name hamiltonian n backend device_name cutoff j h inject
    json
    verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  let module D = Qturbo_analysis.Diagnostic in
  let module KC = Qturbo_analysis.Kernel_check in
  let module CP = Qturbo_core.Compile_plan in
  (* every kernel compiled from here on is verified at birth *)
  KC.install_compile_hook ();
  let model = resolve_model ~hamiltonian ~model_name ~n ~j ~h in
  let n = model.Qturbo_models.Model.n in
  let aais =
    (resolve_backend ~backend ~device:device_name ~cutoff ~ramp:false
       ~model_name:model.Qturbo_models.Model.name ~n)
      .Backend.aais
  in
  let plan =
    CP.build ~aais
      ~target_shape:(CP.support_of_target (Ops.static_target model))
      ()
  in
  let channels = Aais.channels aais in
  let subject0 =
    if Array.length channels > 0 then
      D.Channel
        {
          cid = channels.(0).Instruction.cid;
          label = channels.(0).Instruction.label;
        }
    else D.System
  in
  let kernel_diags = KC.check_aais aais in
  let injected =
    match inject with
    | None -> []
    | Some variant -> (
        let n_env = Array.length (Aais.variables aais) in
        match lint_kernel_fixture variant with
        | Some (_code, k) -> KC.check ~subject:subject0 ~n_env k
        | None -> (
            match variant with
            | "kernel-range" ->
                (* a kernel provably computing a different function than
                   the expression it claims to implement *)
                KC.check ~subject:subject0 ~source:(Expr.Const 2.0) ~n_env
                  (Expr.compile_unfused (Expr.Const 3.0))
            | _ -> (
                match lint_corrupt_plan variant plan with
                | Some (_code, bad) -> CP.lint bad
                | None -> failwith ("unknown injection: " ^ variant))))
  in
  let diags = kernel_diags @ injected in
  let n_rows = Ops.plan_rows plan in
  if json then
    print_endline
      (Ops.lint_payload ~model_label:model.Qturbo_models.Model.name ~backend
         ~channels:(Array.length channels) ~rows:n_rows diags)
  else begin
    List.iter (fun d -> print_endline (D.to_string d)) diags;
    Printf.printf
      "linted %d kernel(s) and 1 plan (%d rows): %d error(s), %d warning(s)\n"
      (Array.length channels) n_rows
      (List.length (D.errors diags))
      (List.length (D.warnings diags))
  end;
  if D.has_errors diags then 1 else 0

let lint_inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"DEFECT"
        ~doc:
          "Seed a known defect before linting (test aid).  Kernel defects: \
           $(b,kernel-underflow) (QT017), $(b,kernel-arity) (QT018), \
           $(b,kernel-env) (QT019), $(b,kernel-depth) (QT020), \
           $(b,kernel-range) (QT021), $(b,kernel-opcode) (QT022).  Plan \
           defects: $(b,plan-support) (QT023), $(b,plan-channels) (QT024), \
           $(b,plan-csr) (QT024: a row names a channel twice; needs a row \
           fed by two channels), $(b,plan-dup-channel) (QT025).")

let lint_term =
  Term.(
    const lint_cmd $ model_arg $ hamiltonian_arg $ n_arg $ backend_arg
    $ device_arg $ cutoff_arg $ j_arg $ h_arg $ lint_inject_arg $ json_flag
    $ verbose_flag)

let lint_info =
  Cmd.info "lint"
    ~doc:
      "Statically verify the compiled artifacts for a model/device pair \
       without solving: every channel's postfix kernel (stack safety, \
       environment references, range soundness — QT017-QT022) and the \
       compile plan's cross-stage invariants (QT023-QT026).  Exits non-zero \
       when error-severity diagnostics are found."

(* ---- sweep: many (coefficients, t_tar) jobs through one shared plan ---- *)

let parse_range = Ops.parse_range
let parse_int_list = Ops.parse_int_list

(* One job per non-empty, non-comment line: "J H T_TAR" (0 = model
   default, same convention as the compile flags). *)
let parse_jobs_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let jobs = ref [] in
  let line_no = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr line_no;
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then
         match Scanf.sscanf line " %f %f %f" (fun j h t -> (j, h, t)) with
         | job -> jobs := job :: !jobs
         | exception _ ->
             failwith
               (Printf.sprintf "%s:%d: expected 'J H T_TAR', got %S" path
                  !line_no line)
     done
   with End_of_file -> ());
  List.rev !jobs

let digest_key = Ops.digest_key

let print_plan_summary ~plan_cache =
  if not plan_cache then print_endline "plan: cache disabled"
  else begin
    let s = Qturbo_core.Compile_plan.cache_stats () in
    Printf.printf
      "plan: %d hit(s) / %d miss(es) / %d eviction(s) / %d discarded; %d \
       cached plan(s)\n"
      s.Qturbo_core.Plan_cache.hits s.Qturbo_core.Plan_cache.misses
      s.Qturbo_core.Plan_cache.evictions s.Qturbo_core.Plan_cache.discarded
      s.Qturbo_core.Plan_cache.size;
    List.iter
      (fun (key, (k : Qturbo_core.Plan_cache.key_stats)) ->
        Printf.printf "  key %s: %d hit(s) / %d miss(es)\n" (digest_key key)
          k.Qturbo_core.Plan_cache.key_hits
          k.Qturbo_core.Plan_cache.key_misses)
      (Qturbo_core.Compile_plan.cache_per_key ())
  end;
  print_store_summary ()

let sweep_cmd model_name hamiltonian n backend device_name cutoff jobs_file
    sweep_j sweep_h sweep_t sweep_segments domains batch_domains no_plan_cache
    plan_store best_effort json verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  setup_plan_store plan_store;
  let options =
    Ops.options_with ~domains ~best_effort ~deadline:0.0 ~no_plan_cache
  in
  let batch_domains =
    if batch_domains > 0 then batch_domains
    else options.Qturbo_core.Compiler.domains
  in
  let ts = parse_range ~what:"--sweep-t" sweep_t in
  let jobs =
    match jobs_file with
    | Some path -> parse_jobs_file path
    | None ->
        let js = parse_range ~what:"--sweep-j" sweep_j in
        let hs = parse_range ~what:"--sweep-h" sweep_h in
        List.concat_map
          (fun j ->
            List.concat_map (fun h -> List.map (fun t -> (j, h, t)) ts) hs)
          js
  in
  if jobs = [] then failwith "sweep: no jobs (empty --jobs file?)";
  let model_of ~j ~h = resolve_model ~hamiltonian ~model_name ~n ~j ~h in
  let probe = model_of ~j:0.0 ~h:0.0 in
  let n = probe.Qturbo_models.Model.n in
  let inst =
    resolve_backend ~backend ~device:device_name ~cutoff ~ramp:false
      ~model_name:probe.Qturbo_models.Model.name ~n
  in
  if Qturbo_models.Model.is_driven probe then begin
    (* time-dependent sweep: re-discretize the model at each segment
       count; all segments of every job share one plan when their
       shapes agree, so the whole sweep pays one front-end build *)
    let seg_list = parse_int_list ~what:"--sweep-segments" sweep_segments in
    if seg_list = [] then
      failwith "time-dependent sweeps need --sweep-segments, e.g. 2,4,8";
    let td_jobs =
      List.concat_map (fun segments -> List.map (fun t -> (segments, t)) ts)
        seg_list
    in
    if json then
      print_endline
        (Ops.sweep_td_json ~options ~batch_domains ~backend ~inst ~probe
           ~td_jobs ())
    else begin
      let results =
        List.map
          (fun (segments, t_tar) ->
            ( segments,
              t_tar,
              Qturbo_core.Td_compiler.compile ~options ~aais:inst.Backend.aais
                ~model:probe ~t_tar ~segments () ))
          td_jobs
      in
      List.iteri
        (fun i (segments, t_tar, (td : Qturbo_core.Td_compiler.result)) ->
          Printf.printf
            "job %d: segments=%d t=%g -> T_sim=%.4f us, error %.4f%%, %d \
             build(s)%s\n"
            i segments t_tar td.Qturbo_core.Td_compiler.t_sim
            td.Qturbo_core.Td_compiler.relative_error
            td.Qturbo_core.Td_compiler.plan_builds
            (if td.Qturbo_core.Td_compiler.degraded then " DEGRADED" else ""))
        results;
      print_plan_summary ~plan_cache:options.Qturbo_core.Compiler.plan_cache
    end;
    0
  end
  else begin
    let target_of ~j ~h = Ops.static_target (model_of ~j ~h) in
    if json then
      print_endline
        (Ops.sweep_static_json ~options ~batch_domains ~backend ~inst ~probe
           ~target_of ~jobs ())
    else begin
      let batch = List.map (fun (j, h, t) -> (target_of ~j ~h, t)) jobs in
      let results =
        Qturbo_core.Compiler.compile_batch ~options ~batch_domains
          ~aais:inst.Backend.aais batch
      in
      List.iteri
        (fun i ((j, h, t), (r : Qturbo_core.Compiler.result)) ->
          Printf.printf
            "job %d: j=%g h=%g t=%g -> T_sim=%.4f us, error %.4f%%%s\n" i j h
            t r.Qturbo_core.Compiler.t_sim
            r.Qturbo_core.Compiler.relative_error
            (if r.Qturbo_core.Compiler.degraded then " DEGRADED" else ""))
        (List.combine jobs results);
      print_plan_summary ~plan_cache:options.Qturbo_core.Compiler.plan_cache
    end;
    0
  end

let jobs_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jobs" ] ~docv:"FILE"
        ~doc:
          "Job list file: one 'J H T_TAR' triple per line ('#' comments; 0 \
           = model default).  Overrides the --sweep-* ranges.")

let sweep_j_arg =
  Arg.(
    value & opt string "0"
    & info [ "sweep-j" ] ~docv:"RANGE"
        ~doc:
          "Coupling values: a single value or LO:HI:COUNT (0 = model \
           default).")

let sweep_h_arg =
  Arg.(
    value & opt string "0"
    & info [ "sweep-h" ] ~docv:"RANGE"
        ~doc:
          "Transverse-field values: a single value or LO:HI:COUNT (0 = \
           model default).")

let sweep_t_arg =
  Arg.(
    value & opt string "1.0"
    & info [ "sweep-t" ] ~docv:"RANGE"
        ~doc:"Target evolution times (µs): a single value or LO:HI:COUNT.")

let sweep_segments_arg =
  Arg.(
    value & opt string ""
    & info [ "sweep-segments" ] ~docv:"LIST"
        ~doc:
          "Comma-separated segment counts for driven models (e.g. 2,4,8); \
           each count re-discretizes the model, sharing plans across the \
           sweep.")

let batch_domains_arg =
  Arg.(
    value & opt int 0
    & info [ "batch-domains" ] ~docv:"D"
        ~doc:
          "Worker domains for the batch job sweep (0 = the QTURBO_DOMAINS / \
           core-count default; 1 = fully sequential).  Batch output is \
           bitwise-identical for every value.  Time-dependent sweeps run \
           their jobs in order (each spreads its segments over \
           $(b,--domains)); the value is only echoed in their JSON header.")

let sweep_term =
  Term.(
    const sweep_cmd $ model_arg $ hamiltonian_arg $ n_arg $ backend_arg
    $ device_arg $ cutoff_arg $ jobs_file_arg $ sweep_j_arg $ sweep_h_arg
    $ sweep_t_arg $ sweep_segments_arg $ domains_arg $ batch_domains_arg
    $ no_plan_cache_flag $ plan_store_arg $ best_effort_flag $ json_flag
    $ verbose_flag)

let sweep_info =
  Cmd.info "sweep"
    ~doc:
      "Compile a grid or list of (coefficients, evolution-time) jobs in one \
       process.  Structurally-identical jobs share one compile plan; the \
       numeric back-ends run in parallel with --batch-domains workers."

(* ---- run: compile + emulate ---- *)

let run_cmd model_name n device_name t_tar j h shots noise_scale seed verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  let j = if j = 0.0 then None else Some j in
  let h = if h = 0.0 then None else Some h in
  let model = build_model ~name:model_name ~n ~j ~h in
  if Qturbo_models.Model.is_driven model then
    failwith "run supports static models only (compile driven ones instead)";
  let spec =
    match List.assoc_opt device_name run_device_presets with
    | Some sp -> sp
    | None -> failwith ("unknown device: " ^ device_name)
  in
  let ryd = Rydberg.build ~spec ~n in
  let target = Ops.static_target model in
  let r = Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar () in
  let pulse =
    Qturbo_core.Extract.rydberg_pulse ryd ~env:r.Qturbo_core.Compiler.env
      ~t_sim:r.Qturbo_core.Compiler.t_sim
  in
  Printf.printf "compiled: T_sim = %.4f us, relative error %.3f%%\n"
    r.Qturbo_core.Compiler.t_sim r.Qturbo_core.Compiler.relative_error;
  let ground = Qturbo_quantum.State.ground ~n in
  let th = Qturbo_quantum.Evolve.evolve ~h:target ~t:t_tar ground in
  Printf.printf "theory:   Z_avg = %+.4f  ZZ_avg = %+.4f\n"
    (Qturbo_quantum.Observable.z_avg th)
    (Qturbo_quantum.Observable.zz_avg th);
  let noise =
    Qturbo_device_noise.Noise_model.scaled noise_scale
      Qturbo_device_noise.Noise_model.aquila
  in
  let rng = Qturbo_util.Rng.create ~seed:(Int64.of_int seed) in
  let o = Qturbo_device_noise.Emulator.run ~rng ~noise ~shots ~pulse () in
  Printf.printf "device:   Z_avg = %+.4f  ZZ_avg = %+.4f  (%d shots, %d trajectories, noise x%g)\n"
    o.Qturbo_device_noise.Emulator.z_avg o.Qturbo_device_noise.Emulator.zz_avg
    o.Qturbo_device_noise.Emulator.shots o.Qturbo_device_noise.Emulator.trajectories
    noise_scale;
  0

let shots_arg =
  Arg.(value & opt int 500 & info [ "shots" ] ~docv:"K" ~doc:"Measurement shots.")

let noise_scale_arg =
  Arg.(
    value & opt float 1.0
    & info [ "noise-scale" ] ~docv:"S" ~doc:"Scale factor on the Aquila noise model.")

let seed_arg =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"Emulator RNG seed.")

let run_model_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "model"; "m" ] ~docv:"NAME" ~doc:"Benchmark model (see `qturbo models`).")

let run_device_arg =
  Arg.(
    value & opt string "aquila-fig6a"
    & info [ "device"; "d" ] ~docv:"DEVICE" ~doc:"Rydberg device preset.")

let run_term =
  Term.(
    const run_cmd $ run_model_arg $ n_arg $ run_device_arg $ t_tar_arg $ j_arg
    $ h_arg $ shots_arg $ noise_scale_arg $ seed_arg $ verbose_flag)

let run_info =
  Cmd.info "run"
    ~doc:"Compile a model and execute the pulse on the noisy device emulator."

(* ---- serve / client: the Unix-domain-socket compile service ---- *)

let default_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ()) "qturbo.sock"

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path (default: $(b,qturbo.sock) in the \
           system temporary directory).")

let serve_cmd socket max_request_bytes deadline_cap max_requests plan_store
    verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  setup_plan_store plan_store;
  let socket_path = Option.value socket ~default:(default_socket_path ()) in
  if max_request_bytes < 1 then failwith "--max-request-bytes must be >= 1";
  let config =
    {
      (Qturbo_service.Server.default_config ~socket_path) with
      max_request_bytes;
      deadline_cap = (if deadline_cap > 0.0 then Some deadline_cap else None);
      max_requests = (if max_requests > 0 then Some max_requests else None);
    }
  in
  Qturbo_service.Server.serve config;
  0

let max_request_bytes_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "max-request-bytes" ] ~docv:"BYTES"
        ~doc:
          "Reject request lines longer than $(docv) with a parse-error \
           response (default 1 MiB).")

let deadline_cap_arg =
  Arg.(
    value & opt float 0.0
    & info [ "deadline-cap" ] ~docv:"SECONDS"
        ~doc:
          "Upper bound applied to every compile request's deadline; \
           requests asking for more (or for none) get this (0 = no cap).")

let max_requests_arg =
  Arg.(
    value & opt int 0
    & info [ "max-requests" ] ~docv:"K"
        ~doc:
          "Serve at most $(docv) requests, then exit (0 = serve until \
           shutdown); tests and smoke jobs use it to bound the daemon's \
           life.")

let serve_term =
  Term.(
    const serve_cmd $ socket_arg $ max_request_bytes_arg $ deadline_cap_arg
    $ max_requests_arg $ plan_store_arg $ verbose_flag)

let serve_info =
  Cmd.info "serve"
    ~doc:
      "Run the compile daemon on a Unix-domain socket: one warm process \
       (plan cache, backend instances, optional plan store) answering \
       newline-delimited JSON requests — compile, check, lint, sweep, \
       stats, ping, shutdown.  Responses reuse the exact --json payload \
       shapes; a request can fail (typed error responses carrying the \
       diagnostics or classified failure records), the daemon does not."

let client_cmd socket request verbose =
 user_errors @@ fun () ->
  setup_logging verbose;
  let socket_path = Option.value socket ~default:(default_socket_path ()) in
  let line =
    match request with
    | "-" -> ( match In_channel.input_line stdin with
      | Some l -> l
      | None -> failwith "client: no request on stdin")
    | r -> r
  in
  match Qturbo_service.Client.request ~socket_path line with
  | Error msg -> failwith msg
  | Ok resp ->
      print_endline resp;
      if Qturbo_service.Client.response_ok resp then 0 else 1

let request_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"REQUEST"
        ~doc:
          "The JSON request line, e.g. \
           '{\"op\":\"compile\",\"model\":\"ising-chain\",\"n\":5}'; \
           $(b,-) reads it from stdin.")

let client_term = Term.(const client_cmd $ socket_arg $ request_arg $ verbose_flag)

let client_info =
  Cmd.info "client"
    ~doc:
      "Send one JSON request to a running `qturbo serve` daemon and print \
       the response line.  Exits 0 when the response carries \
       \"ok\": true, 1 otherwise."

(* ---- models / devices ---- *)

let models_cmd () =
  List.iter print_endline Ops.model_names;
  0

let devices_cmd () =
  List.iter
    (fun (b : Backend.t) ->
      List.iter
        (fun (name, summary) -> Printf.printf "%-14s %s\n" name summary)
        b.Backend.devices)
    (Backend.all ());
  0

let main () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let cmd =
    Cmd.group ~default
      (Cmd.info "qturbo" ~version:"1.0.0"
         ~doc:"A robust and efficient compiler for analog quantum simulation.")
      [
        Cmd.v compile_info compile_term;
        Cmd.v check_info check_term;
        Cmd.v lint_info lint_term;
        Cmd.v sweep_info sweep_term;
        Cmd.v serve_info serve_term;
        Cmd.v client_info client_term;
        Cmd.v run_info run_term;
        Cmd.v (Cmd.info "models" ~doc:"List benchmark models.") Term.(const models_cmd $ const ());
        Cmd.v (Cmd.info "devices" ~doc:"List device presets.") Term.(const devices_cmd $ const ());
      ]
  in
  exit (Cmd.eval' cmd)

let () = main ()
