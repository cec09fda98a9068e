(* Seeded jobs, the compile operations of the [oneshot] and [warm-sweep]
   workloads, and the output checks every operation must pass. *)

module CP = Qturbo_core.Compile_plan
module C = Qturbo_core.Compiler
module Td = Qturbo_core.Td_compiler
module V = Qturbo_core.Verifier
module Backend = Qturbo_backend.Backend
module Ops = Qturbo_service.Ops
module Rng = Qturbo_util.Rng
module Model = Qturbo_models.Model
module Pauli_sum = Qturbo_pauli.Pauli_sum

(* [cutoff] is the Rydberg interaction cutoff; [None] is the backend's
   default ([auto]). *)
type shape = {
  backend : string;
  model : string;
  n : int;
  cutoff : string option;
}

type job = { shape : shape; j : float; h : float; t_tar : float }

let td_segments = 4
let label s =
  Printf.sprintf "%s/%s/%d%s" s.backend s.model s.n
    (match s.cutoff with None -> "" | Some c -> "/" ^ c)

let render_job jb =
  Printf.sprintf "%s j=%h h=%h t=%h" (label jb.shape) jb.j jb.h jb.t_tar

(* Coefficients and the target time jitter by at most 5% around the
   paper's defaults (all 1): a seed changes the numbers a compile sees,
   never its shape or its cost class. *)
let jitter rng = Rng.uniform rng ~lo:0.95 ~hi:1.05

(* [count] rounds, each a seeded permutation of [pool]: every seed runs
   the same mix in its own order. *)
let rounds ~rng ~count pool =
  let pool = Array.of_list pool in
  List.concat
    (List.init count (fun _ ->
         let order = Array.copy pool in
         Rng.shuffle rng order;
         Array.to_list order))

(* The rounds of [pool], every job with its own coefficients. *)
let jobs ~seed ~count pool =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  List.map
    (fun shape ->
      let j = jitter rng in
      let h = jitter rng in
      { shape; j; h; t_tar = jitter rng })
    (rounds ~rng ~count pool)

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* ---- output checks ---------------------------------------------------- *)

exception Check_failed of string

let check cond what = if not cond then raise (Check_failed what)

type outcome = { t_sim : float; rel_err : float }

let finite_pos x = Float.is_finite x && x > 0.0

let check_report (report : V.report) =
  check (Float.is_finite report.V.error_l1) "verifier error is not finite";
  check report.V.consistent_with_compiler "verifier disagrees with the compiler"

let check_static (r : C.result) (report : V.report) =
  check (finite_pos r.C.t_sim) "t_sim is not positive and finite";
  check (Float.is_finite r.C.error_l1) "compiler error is not finite";
  check_report report;
  check
    (r.C.error_l1 <= (r.C.theorem1_bound *. (1.0 +. 1e-9)) +. 1e-12)
    "theorem-1 bound is below the error";
  check (not r.C.degraded) "degraded result"

(* The pulse a user would run: extracted, then ramped where the backend
   declares the post-pass. *)
let final_pulse ~(b : Backend.t) ~(inst : Backend.instance) ~env ~t_sim =
  let pulse = inst.Backend.extract ~env ~t_sim in
  if Backend.supports b Backend.Ramp then inst.Backend.ramp pulse else pulse

let check_executable pulse =
  check (Backend.pulse_violations pulse = []) "pulse is not executable"

(* ---- compiling ---------------------------------------------------------- *)

let options () = C.default_options

(* Untraced this is [Compiler.compile]; traced it is the same compile
   decomposed into [obtain] and [solve ~provenance] (bitwise-equal), with
   a separate key render and lint so those layers get their own times. *)
let compile_static ?(options = options ()) ~aais ~target ~t_tar () =
  if not !Trace.on then C.compile ~options ~aais ~target ~t_tar ()
  else begin
    let key =
      Trace.span "shape.key" (fun () -> CP.plan_key ~options ~aais ~target)
    in
    Trace.value "shape.key_kb" (float_of_int (String.length key) /. 1024.0);
    let plan, provenance =
      Trace.span "plan.obtain" (fun () -> CP.obtain ~options ~aais ~target)
    in
    ignore (Trace.span "plan.lint" (fun () -> CP.lint plan));
    if provenance = C.Built then
      Trace.value "plan.build_reported_ms" (1000.0 *. plan.CP.build_seconds);
    let r =
      Trace.span "solve" (fun () ->
          CP.solve ~options ~provenance ~plan ~coeffs:target ~t_tar ())
    in
    Trace.value "solve.constraint_iters"
      (float_of_int r.C.constraint_iterations);
    Trace.value "solve.components" (float_of_int (List.length r.C.components));
    Trace.value "solve.failures" (float_of_int (List.length r.C.failures));
    r
  end

let no_plan =
  {
    C.cache_enabled = false;
    cache_hit = false;
    store_enabled = false;
    store_hit = false;
    cache_hits = 0;
    cache_misses = 0;
    cache_discarded = 0;
    key_hits = 0;
    key_misses = 0;
    key_evictions = 0;
    build_seconds = 0.0;
    solve_seconds = 0.0;
  }

(* One segment of a time-dependent compile, in the shape the backend's
   verifier reads (it uses the variable values, the duration, the
   compiler's own error and the failure records). *)
let segment_result (td : Td.result) (s : Td.segment_result) =
  {
    C.env = s.Td.env;
    t_sim = s.Td.duration;
    alpha_target = [||];
    alpha_achieved = [||];
    error_l1 = s.Td.error_l1;
    relative_error = 0.0;
    eps1 = s.Td.eps1;
    eps2_total = 0.0;
    theorem1_bound = infinity;
    components = [];
    constraint_iterations = 0;
    compile_seconds = 0.0;
    warnings = [];
    diagnostics = [];
    failures = td.Td.failures;
    degraded = td.Td.degraded;
    plan = no_plan;
  }

(* A driven model: [Td_compiler.compile] over [td_segments] segments,
   then every segment verified against its own discretized Hamiltonian;
   with [emit], every segment's pulse is ramped, checked and rendered. *)
let compile_td ~b ~inst ~model ~t_tar ~emit =
  let aais = inst.Backend.aais in
  let td =
    Trace.span "td.compile" (fun () ->
        Td.compile ~options:(options ()) ~aais ~model ~t_tar
          ~segments:td_segments ())
  in
  Trace.value "td.plan_builds" (float_of_int td.Td.plan_builds);
  check (finite_pos td.Td.t_sim) "t_sim is not positive and finite";
  check (Float.is_finite td.Td.error_l1) "compiler error is not finite";
  check (not td.Td.degraded) "degraded result";
  let tau = t_tar /. float_of_int td_segments in
  let pairs =
    List.combine
      (List.map Pauli_sum.drop_identity
         (Model.discretize model ~segments:td_segments))
      td.Td.segments
  in
  Trace.span "verify" (fun () ->
      List.iter
        (fun (target, s) ->
          let report =
            inst.Backend.verify ~target ~t_tar:tau (segment_result td s)
          in
          check_report report;
          if not emit then check report.V.executable "pulse is not executable")
        pairs);
  if emit then begin
    let pulses =
      Trace.span "emit" (fun () ->
          List.map
            (fun (_, s) ->
              final_pulse ~b ~inst ~env:s.Td.env ~t_sim:s.Td.duration)
            pairs)
    in
    let json =
      Trace.span "emit" (fun () ->
          "[" ^ String.concat "," (List.map Backend.pulse_json pulses) ^ "]")
    in
    Trace.value "emit.kb" (float_of_int (String.length json) /. 1024.0);
    Trace.span "verify" (fun () -> List.iter check_executable pulses)
  end;
  { t_sim = td.Td.t_sim; rel_err = td.Td.relative_error }

let build_model (jb : job) =
  Trace.span "model" (fun () ->
      Ops.build_model ~name:jb.shape.model ~n:jb.shape.n ~j:(Some jb.j)
        ~h:(Some jb.h))

(* [resolve ()] builds a backend instance (its AAIS). *)
let traced_instance resolve =
  let inst = Trace.span "backend.instantiate" resolve in
  if !Trace.on then
    Trace.value "aais.channels"
      (float_of_int (Array.length (Qturbo_aais.Aais.channels inst.Backend.aais)));
  inst

let instantiate (s : shape) =
  traced_instance (fun () ->
      Ops.resolve_backend ~backend:s.backend ~device:None ~cutoff:s.cutoff
        ~ramp:false ~model_name:s.model ~n:s.n)

(* ---- oneshot ------------------------------------------------------------ *)

(* A fresh [qturbo compile --json --show-pulse] process, minus process
   start: empty caches, no store, the model and backend resolved from
   scratch, compile, verify, ramp where declared, render the report and
   the pulse. *)
let oneshot_op (jb : job) =
  Trace.op ~label:(label jb.shape) (fun () ->
      CP.clear_caches ();
      let model = build_model jb in
      let b = Backend.find_exn jb.shape.backend in
      let inst = instantiate jb.shape in
      if Model.is_driven model then
        compile_td ~b ~inst ~model ~t_tar:jb.t_tar ~emit:true
      else begin
        let target = Ops.static_target model in
        let aais = inst.Backend.aais in
        let r = compile_static ~aais ~target ~t_tar:jb.t_tar () in
        let report =
          Trace.span "verify" (fun () ->
              inst.Backend.verify ~target ~t_tar:jb.t_tar r)
        in
        let pulse =
          Trace.span "emit" (fun () ->
              final_pulse ~b ~inst ~env:r.C.env ~t_sim:r.C.t_sim)
        in
        let json =
          Trace.span "emit" (fun () ->
              let report = V.report_to_json report in
              String.sub report 0 (String.length report - 1)
              ^ ",\"pulse\":" ^ Backend.pulse_json pulse ^ "}")
        in
        Trace.value "emit.kb" (float_of_int (String.length json) /. 1024.0);
        check_static r report;
        Trace.span "verify" (fun () -> check_executable pulse);
        { t_sim = r.C.t_sim; rel_err = r.C.relative_error }
      end)

(* ---- warm-sweep --------------------------------------------------------- *)

type warm = { inst : Backend.instance; b : Backend.t }

(* Build every shape's AAIS and plan once, against empty caches. *)
let warm_setup shapes =
  CP.clear_caches ();
  List.map
    (fun s ->
      let jb = { shape = s; j = 1.0; h = 1.0; t_tar = 1.0 } in
      let model = build_model jb in
      let b = Backend.find_exn s.backend in
      let inst = instantiate s in
      let aais = inst.Backend.aais in
      (if Model.is_driven model then
         (* the union-support plan is keyed on the discretization, so
            the simplest way to build exactly it is one compile *)
         ignore
           (Td.compile ~options:(options ()) ~aais ~model ~t_tar:1.0
              ~segments:td_segments ())
       else
         ignore
           (CP.obtain ~options:(options ()) ~aais
              ~target:(Ops.static_target model)));
      (s, { inst; b }))
    shapes

let warm_op warm (jb : job) =
  let w = List.assoc jb.shape warm in
  Trace.op ~label:(label jb.shape) (fun () ->
      let model = build_model jb in
      if Model.is_driven model then
        compile_td ~b:w.b ~inst:w.inst ~model ~t_tar:jb.t_tar ~emit:false
      else begin
        let target = Ops.static_target model in
        let r =
          compile_static ~aais:w.inst.Backend.aais ~target ~t_tar:jb.t_tar ()
        in
        let report =
          Trace.span "verify" (fun () ->
              w.inst.Backend.verify ~target ~t_tar:jb.t_tar r)
        in
        check_static r report;
        check report.V.executable "pulse is not executable";
        { t_sim = r.C.t_sim; rel_err = r.C.relative_error }
      end)

(* ---- the negative case ---------------------------------------------------- *)

(* [rydberg ising-chain -n 300] on the default device compiles with an
   infinite error and coincident atoms; the checks must refuse it. *)
let negative_flagged () =
  let jb =
    { shape = { backend = "rydberg"; model = "ising-chain"; n = 300; cutoff = None };
      j = 1.0; h = 1.0; t_tar = 1.0 }
  in
  match oneshot_op jb with
  | _ -> None
  | exception Check_failed why -> Some why
  | exception e -> Some (Printexc.to_string e)
