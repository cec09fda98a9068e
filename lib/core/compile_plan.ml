open Qturbo_aais
open Qturbo_pauli

let src = Logs.Src.create "qturbo.compiler" ~doc:"QTurbo compilation pipeline"

module Log = (val Logs.src_log src)

module Failure = Qturbo_resilience.Failure
module Fault = Qturbo_resilience.Fault
module Supervisor = Qturbo_resilience.Supervisor
module Diagnostic = Qturbo_analysis.Diagnostic

type options = {
  refine : bool;
  time_opt : bool;
  dense_linear_solver : bool;
  generic_local_solver : bool;
  domains : int;
  best_effort : bool;
  deadline_seconds : float option;
  faults : Fault.spec option;
  plan_cache : bool;
}

let default_options =
  {
    refine = true;
    time_opt = true;
    dense_linear_solver = false;
    generic_local_solver = false;
    domains = Qturbo_par.Pool.default_domains ();
    best_effort = false;
    deadline_seconds = None;
    faults = None;
    plan_cache = true;
  }

(* The §5 evolution-time search's fixed parameters: the bottleneck
   padding of the [time_opt = false] ablation, the §5.2 constraint
   loop's multiplicative [Δt] step and iteration bound, and the
   smallest [T_sim] any compile returns. *)
let no_opt_padding = 3.0
let dt_factor = 1.25
let max_constraint_iters = 24
let time_floor = 1e-4

(* Observability hook for the pipeline stages.  Tests install a recorder
   to assert ordering properties ("no solver stage ran before rejection",
   "a cached compile skips plan-build") without relying on timing. *)
let stage_hook : (string -> unit) ref = ref (fun _ -> ())

type component_summary = {
  classification : string;
  channels : int;
  variables : int;
  min_time : float;
  eps2 : float;
}

type plan_stats = {
  cache_enabled : bool;
  cache_hit : bool;
  store_enabled : bool;
  store_hit : bool;
  cache_hits : int;
  cache_misses : int;
  cache_discarded : int;
  key_hits : int;
  key_misses : int;
  key_evictions : int;
  build_seconds : float;
  solve_seconds : float;
}

(* Where this compile's plan came from: a fresh front-end build, the
   in-memory LRU, or the on-disk store. *)
type provenance = Built | Cached | Stored

(* What the §5.2 constraint loop settled on: the evolution time the
   layout was accepted at, the variable values, each solved component's
   residual and the final iteration's records; [exhausted] carries the
   loop's own record when it stopped with violations left. *)
type layout = {
  t_sim : float;
  env : float array;
  eps2s : float list;
  solve_failures : Failure.t list;
  iterations : int;
  exhausted : Failure.t option;
}

type result = {
  env : float array;
  t_sim : float;
  alpha_target : float array;
  alpha_achieved : float array;
  error_l1 : float;
  relative_error : float;
  eps1 : float;
  eps2_total : float;
  theorem1_bound : float;
  components : component_summary list;
  constraint_iterations : int;
  compile_seconds : float;
  warnings : string list;
  diagnostics : Diagnostic.t list;
  failures : Failure.t list;
  degraded : bool;
  plan : plan_stats;
}

(* One locality component's prepared solver: the §5.1 closed forms or
   generic path for a runtime-dynamic component, the §5.2 position
   solve for a runtime-fixed one. *)
type prepared_comp =
  | Dynamic of Local_solver.prepared
  | Fixed of Fixed_solver.prepared

let component = function
  | Dynamic p -> Local_solver.component p
  | Fixed p -> Fixed_solver.component p

let classification_name = function
  | Fixed _ -> "fixed"
  | Dynamic p -> (
      match Local_solver.case p with
      | Local_solver.Const _ -> "const"
      | Local_solver.Linear _ -> "linear"
      | Local_solver.Polar _ -> "polar"
      | Local_solver.Generic _ -> "generic")

(* ------------------------------------------------------------------ *)
(* Plan artifacts                                                      *)

type device = {
  aais : Aais.t;
  channels : Instruction.channel array;
  vars : Variable.t array;
  generic_local_solver : bool;
  prepared : prepared_comp list;
}

type t = {
  device : device;
  support : Pauli_string.t list;
  skeleton : Linear_system.skeleton;
  structure_diags : Diagnostic.t list;
  precheck : Qturbo_analysis.Analysis.table;
  lint_diags : Diagnostic.t list;
  lru_key : string;
  build_seconds : float;
}

let support_of_target = Shape.support_of_target

let flag_prefix generic = Printf.sprintf "g=%b|" generic

(* The plan-key format: the flag prefix and [Shape.key]'s two sections,
   joined in one copy of the rendering.  Only the store reads it. *)
let plan_key_of_support ~(options : options) ~aais ~support =
  String.concat ""
    [
      flag_prefix options.generic_local_solver;
      Shape.of_aais aais;
      "@@";
      Shape.of_support support;
    ]

let plan_key ~options ~aais ~target =
  plan_key_of_support ~options ~aais ~support:(support_of_target target)

(* The in-memory LRU files a plan under a compact key: the solver flag
   and digests of the device rendering and of the support.  A digest
   match is only a candidate; [plan_serves] confirms it exactly before
   anything is served. *)
let plan_lru_key ~generic ~aais ~support =
  flag_prefix generic
  ^ Digest.to_hex (Shape.digest aais)
  ^ "|"
  ^ Digest.to_hex (Digest.string (Shape.of_support support))

let plan_serves ~generic ~aais ~support (p : t) =
  Bool.equal p.device.generic_local_solver generic
  && Shape.same_device p.device.aais aais
  && List.equal Pauli_string.equal p.support support

let build_device ~(options : options) ~aais =
  let channels = Aais.channels aais in
  let vars = Aais.variables aais in
  let generic = options.generic_local_solver in
  let prepare (comp : Locality.component) =
    if List.exists (fun v -> Variable.is_fixed vars.(v)) comp.var_ids then
      Fixed (Fixed_solver.prepare ~vars ~channels comp)
    else Dynamic (Local_solver.prepare ~generic ~vars ~channels comp)
  in
  {
    aais;
    channels;
    vars;
    generic_local_solver = generic;
    prepared =
      List.map prepare
        (Locality.decompose ~channels ~n_vars:(Array.length vars));
  }

(* The structure pass of [qturbo.analysis] takes a generic view of the
   system; convert the skeleton rows and [Locality] components. *)
let structure_rows ~index ~cells =
  Array.to_list
    (Array.mapi
       (fun i c ->
         { Qturbo_analysis.Structure.term = Term_index.string_of index i;
           cells = c })
       cells)

let structure_comp s =
  let c = component s in
  {
    Qturbo_analysis.Structure.id = c.Locality.id;
    channel_ids = c.Locality.channel_ids;
    var_ids = c.Locality.var_ids;
  }

(* ------------------------------------------------------------------ *)
(* Plan linting                                                        *)

(* [Plan_lint] (like [Structure]) takes a generic view so the analysis
   library stays independent of this one; convert our types and call
   in. *)

(* What a prepared solver's case names: the variables it writes and
   the channels it reads by id. *)
let classification_view s =
  let class_vars, class_channels =
    match s with
    | Fixed _ -> ([], [])
    | Dynamic p -> (
        match Local_solver.case p with
        | Local_solver.Const ks -> ([], List.map fst ks)
        | Local_solver.Linear { var; slopes; _ } ->
            ([ var ], List.map fst slopes)
        | Local_solver.Polar { amp; phase; cos_channels; sin_channels; _ } ->
            ( [ amp; phase ],
              List.map fst cos_channels @ List.map fst sin_channels )
        | Local_solver.Generic g -> (Array.to_list g.Local_solver.var_ids, []))
  in
  {
    Qturbo_analysis.Plan_lint.name = classification_name s;
    class_vars;
    class_channels;
  }

let lint_artifacts (d : device) ~support skeleton =
  let index = Linear_system.skeleton_index skeleton in
  let channel_terms =
    (* hash-based dedup: devices carry O(n²) channels whose effect terms
       overlap heavily, and the comparison-sort over the raw concat
       dominates lint time on large devices *)
    let module Tbl = Hashtbl.Make (Pauli_string) in
    let seen = Tbl.create (4 * Array.length d.channels) in
    Array.iter
      (fun ch ->
        List.iter
          (fun (t, _) -> if not (Tbl.mem seen t) then Tbl.add seen t ())
          (Instruction.effect_terms ch))
      d.channels;
    Tbl.fold (fun t () acc -> t :: acc) seen []
  in
  Qturbo_analysis.Plan_lint.check
    {
      Qturbo_analysis.Plan_lint.support;
      rows = Term_index.strings index;
      cells = Linear_system.skeleton_cells skeleton;
      csr = Linear_system.skeleton_csr skeleton;
      n_channels = Array.length d.channels;
      n_vars = Array.length d.vars;
      channel_terms;
      components =
        List.map
          (fun s -> (structure_comp s, classification_view s))
          d.prepared;
    }

let lint (plan : t) =
  lint_artifacts plan.device ~support:plan.support plan.skeleton

(* ------------------------------------------------------------------ *)
(* Admission and the cache                                             *)

let plan_cache : t Plan_cache.t = Plan_cache.create ~capacity:32

let cache_stats () = Plan_cache.stats plan_cache
let cache_per_key () = Plan_cache.per_key plan_cache

let clear_caches = Plan_cache.clear_all

(* The one step that admits a plan, from a fresh build or a store
   load: the lint gate, then what the analyzer needs of a plan beyond
   its target, the structure pass and the tables of passes 1, 2 and 4
   over the support rows (the index numbers the support first).  No
   lint pass reads the analyzer's results, so running it second moves
   no output, and it never reads an artifact the gate refused.
   [Error] carries the gate's errors. *)
let admit ~(device : device) ~support ~skeleton ~lru_key =
  let lint_diags = lint_artifacts device ~support skeleton in
  match Diagnostic.errors lint_diags with
  | _ :: _ as errors -> Error errors
  | [] ->
      let index = Linear_system.skeleton_index skeleton
      and cells = Linear_system.skeleton_cells skeleton
      and channels = device.channels
      and variables = device.vars in
      let structure_diags =
        Qturbo_analysis.Structure.check ~channels ~variables
          ~rows:(structure_rows ~index ~cells)
          ~comps:(List.map structure_comp device.prepared)
      in
      let precheck =
        Qturbo_analysis.Analysis.table ~channels ~variables ~cells
          ~rows:(Int.min (List.length support) (Term_index.count index))
      in
      Ok
        { device; support; skeleton; structure_diags; precheck; lint_diags;
          lru_key; build_seconds = 0.0 }

(* The LRU key and the lint gate are part of the front end: both run
   before the clock is read.  Fresh builds are linted before anyone can
   use (or cache) them. *)
let build ?(options = default_options) ?device ~aais ~target_shape () =
  !stage_hook "plan-build";
  let t0 = Qturbo_util.Clock.now () in
  let device =
    match device with Some d -> d | None -> build_device ~options ~aais
  in
  let skeleton =
    Linear_system.skeleton ~channels:device.channels ~support:target_shape
  in
  let lru_key =
    plan_lru_key ~generic:options.generic_local_solver ~aais
      ~support:target_shape
  in
  match admit ~device ~support:target_shape ~skeleton ~lru_key with
  | Ok plan -> { plan with build_seconds = Qturbo_util.Clock.now () -. t0 }
  | Error lint_errors ->
      Log.err (fun m ->
          m "plan lint rejected a fresh build (%d errors)"
            (List.length lint_errors));
      raise (Diagnostic.Rejected lint_errors)

let lint_findings plan = plan.lint_diags

(* ------------------------------------------------------------------ *)
(* Persistent plan store                                               *)

module Plan_store = Qturbo_store.Plan_store

(* [Marshal] is not type-safe across builds: a payload decoded by
   another binary may not have the layout this one expects.  So the
   store-format version bakes in the executable's digest, and a rebuilt
   binary invalidates every prior entry as a counted version mismatch up
   front instead of a bad decode later. *)
let store_version =
  let v = lazy (
    let exe_digest =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with Sys_error _ -> "unknown-executable"
    in
    "qturbo-plan/2 " ^ exe_digest)
  in
  fun () -> Lazy.force v

let store : Plan_store.t option ref = ref None

let enable_store ~dir =
  store := Some (Plan_store.open_store ~version:(store_version ()) ~dir)

let disable_store () = store := None
let store_dir () = Option.map Plan_store.dir !store
let store_stats () = Option.map Plan_store.stats !store

(* An entry is the plan's support and skeleton, so nothing a solve
   executes comes from disk.  A payload that passed the store's byte
   checks (magic, version, the full key with its solver flag, checksum)
   can still be a hand edit with a recomputed checksum, so every byte
   is checked: the decode is guarded, the support must equal the
   request's and the skeleton must be the one the requester's channels
   build.  Only then is the device part built, as a fresh build builds
   it, and the plan passes the same admission step.  Any failure is a
   corrupt miss, and the caller rebuilds. *)
let store_fetch st ~key ~options ~aais ~support ~lru_key =
  let corrupt what =
    Plan_store.reclassify_corrupt st;
    Log.warn (fun m -> m "plan store entry %s; rebuilding" what);
    None
  in
  match Plan_store.load st ~key with
  | None -> None
  | Some payload -> (
      match
        (Marshal.from_string payload 0
          : Pauli_string.t list * Linear_system.skeleton)
      with
      | exception _ -> corrupt "failed to decode"
      | stored, _ when not (List.equal Pauli_string.equal stored support) ->
          corrupt "does not match the request"
      | _, skeleton -> (
          match
            Linear_system.built_from ~channels:(Aais.channels aais) ~support
              skeleton
          with
          | false | (exception _) -> corrupt "does not match the device"
          | true -> (
              let device = build_device ~options ~aais in
              match admit ~device ~support ~skeleton ~lru_key with
              | exception _ -> corrupt "failed the analyzer"
              | Error _ -> corrupt "failed the lint gate"
              | Ok p -> Some p)))

let store_persist st ~key (p : t) =
  let payload = Marshal.to_string (p.support, p.skeleton) [] in
  ignore (Plan_store.save st ~key ~payload : bool)

(* Fetch-or-build a plan for an explicit support.  Returns the plan and
   where it came from: memory LRU, then on-disk store, then a fresh
   build (which back-fills both).  A hit renders nothing: the LRU key
   comes from the AAIS's memoized digest.  The exact full key is spelled
   out once per LRU miss, and only with a store open: the fetch and the
   persist share it. *)
let obtain_for_support ~options ~aais ~support =
  if not options.plan_cache then
    (build ~options ~aais ~target_shape:support (), Built)
  else
    let generic = options.generic_local_solver in
    let lru_key = plan_lru_key ~generic ~aais ~support in
    let accept = plan_serves ~generic ~aais ~support in
    match Plan_cache.find plan_cache lru_key ~accept with
    | Some p ->
        !stage_hook "plan-cache-hit";
        (p, Cached)
    | None -> (
        let store_key =
          Option.map
            (fun st -> (st, plan_key_of_support ~options ~aais ~support))
            !store
        in
        match
          Option.bind store_key (fun (st, key) ->
              store_fetch st ~key ~options ~aais ~support ~lru_key)
        with
        | Some p ->
            !stage_hook "plan-store-hit";
            Plan_cache.add plan_cache lru_key ~accept p;
            (p, Stored)
        | None ->
            (* [build] just linted this plan and raised on errors *)
            let p = build ~options ~aais ~target_shape:support () in
            Plan_cache.add plan_cache lru_key ~accept p;
            Option.iter (fun (st, key) -> store_persist st ~key p) store_key;
            (p, Built))

let obtain ~options ~aais ~target =
  obtain_for_support ~options ~aais ~support:(support_of_target target)

(* ------------------------------------------------------------------ *)
(* Input validation (shared with Td_compiler)                          *)

let validate_t_tar ~who t_tar =
  if not (Float.is_finite t_tar) then
    raise
      (Diagnostic.Rejected
         [
           Diagnostic.make ~code:"QT016" ~severity:Diagnostic.Error
             ~subject:Diagnostic.System
             ~hint:"pass a finite positive evolution time"
             (Printf.sprintf "%s: t_tar must be finite, got %h" who t_tar);
         ]);
  if t_tar <= 0.0 then invalid_arg (who ^ ": t_tar <= 0")

let validate_target ~aais ~target ~t_tar =
  validate_t_tar ~who:"Compiler.compile" t_tar;
  if Pauli_sum.n_qubits target > aais.Aais.n_qubits then
    invalid_arg "Compiler.compile: target touches qubits outside the AAIS"

(* ------------------------------------------------------------------ *)
(* The numeric back-end                                                *)

(* The paper's back end is one sequence of stages: the global linear
   solve (§4.1), the per-component evolution-time search (§5.1), the
   constraint loop on the runtime-fixed variables (§5.2) and refinement
   (§6.2).  A time-dependent target (§5.3) runs them over K coefficient
   instances of one plan, its piecewise-constant segments, around one
   shared runtime-fixed layout.  [instances] runs the right-hand
   sides, the precheck and the linear solves for any K; then the static
   tail (K = 1) or the shared-layout tail (K >= 2) runs its own
   evolution-time sweep, solves the layout and refines. *)

(* Parallel strategy for a component sweep: when one component holds
   most of the channels (the single position component of a Rydberg
   AAIS), spreading components over the pool leaves every domain but
   one idle — run the sweep sequentially so the big component's inner
   parallelism (residual rows, Jacobian entries) gets the pool instead.
   Otherwise parallelize across components, one component per task. *)
let component_domains ~domains prepared =
  let sizes =
    List.map (fun s -> List.length (component s).Locality.channel_ids) prepared
  in
  let total = List.fold_left ( + ) 0 sizes in
  let largest = List.fold_left Int.max 0 sizes in
  if 2 * largest > total then (1, domains) else (domains, 1)

(* One compile in flight: its options, its supervisor (the deadline is
   absolute from [start]), its pool split and the warnings raised so
   far. *)
type run = {
  options : options;
  sup : Supervisor.t;
  comp_domains : int;
  fixed_domains : int;
  mutable warnings : string list;
}

let start ~options (device : device) =
  let comp_domains, fixed_domains =
    component_domains ~domains:options.domains device.prepared
  in
  {
    options;
    sup =
      Supervisor.make ?deadline_seconds:options.deadline_seconds
        ?faults:options.faults ~best_effort:options.best_effort ();
    comp_domains;
    fixed_domains;
    warnings = [];
  }

let warn run w = run.warnings <- w :: run.warnings
let warnings run = List.rev run.warnings

(* Map on the pool under the supervisor's guard for [site].  The guard
   raises [Expired] the moment the deadline passes, abandoning the
   sweep; by then the deadline has expired for every element, so the
   unguarded rerun short-circuits each supervised solve
   deterministically and the degraded result is the same at any domain
   count. *)
let guarded_sweep run ~site ~domains f xs =
  let sweep guard =
    Qturbo_par.Pool.parallel_map_list ?guard ~domains ~chunk:1 f xs
  in
  try sweep (Some (Supervisor.pool_guard run.sup ~site))
  with Supervisor.Expired -> sweep None

let expiry run ~site detail =
  if Supervisor.site_expired run.sup ~site ~component:(-1) then
    [
      Failure.make ~component:(-1) ~site ~stage:"" ~fatal:false
        ~class_:Failure.Deadline_expired detail;
    ]
  else []

(* One index lookup per target term against the plan's table.  A term
   only channels produce lies in a row past the table and is rated from
   its cells here; a term with no row is outside the plan's shape. *)
let diagnose ?t_max ~aais ~plan ~t_tar target =
  let module Feasibility = Qturbo_analysis.Feasibility in
  let index = Linear_system.skeleton_index plan.skeleton in
  let rates = plan.precheck.Qturbo_analysis.Analysis.rates in
  (* local to this call, so no two domains ever force it *)
  let channel_rate =
    lazy
      (Feasibility.channel_rates ~channels:plan.device.channels
         ~variables:plan.device.vars)
  in
  let rate_of s =
    match Term_index.row_of index s with
    | Some row when row < Array.length rates -> rates.(row)
    | Some row -> (
        match (Linear_system.skeleton_cells plan.skeleton).(row) with
        | [] -> None
        | cells ->
            Some (Feasibility.row_rate ~rate:(Lazy.force channel_rate) cells))
    | None ->
        invalid_arg
          "Compile_plan.diagnose: target term outside the plan's shape"
  in
  Qturbo_analysis.Analysis.target_checks plan.precheck ~aais ~rate_of ~target
    ~t_tar ?t_max ()
  @ plan.structure_diags

(* Findings repeat across instances (the channels and bounds are shared,
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

let enforce run ~strict diagnostics =
  if strict then Qturbo_analysis.Analysis.check_or_raise diagnostics;
  List.iter
    (fun d ->
      if d.Diagnostic.severity = Diagnostic.Warning then
        warn run (Diagnostic.to_string d))
    diagnostics;
  Log.debug (fun m ->
      m "precheck: %d diagnostics (%d errors)" (List.length diagnostics)
        (List.length (Diagnostic.errors diagnostics)))

let linear_solve options ls =
  if options.dense_linear_solver then Linear_system.solve_dense ls
  else Linear_system.solve ls

(* One component's shortest feasible evolution time (§5.1); [0.] for
   runtime-fixed components, which the constraint loop polices. *)
let component_min_time run ~alpha = function
  | Dynamic p -> Local_solver.min_time ~sup:run.sup ~alpha p
  | Fixed _ -> (0.0, [])

let padded options t =
  if options.time_opt then t else t *. no_opt_padding

(* The §5.1 start rule for every segment count: each instance starts
   from its padded bottleneck, or from the padded time floor when no
   component bounds it (0) or some component is infeasible at any
   evolution time (infinity, warned once per compile). *)
let start_times run bottlenecks =
  if List.mem infinity bottlenecks then
    warn run "some component is infeasible at any evolution time";
  List.map
    (fun b ->
      padded run.options
        (if b = infinity || b = 0.0 then time_floor else Float.max time_floor b))
    bottlenecks

let solve_component run ~alpha ~t_sim = function
  | Dynamic p ->
      let { Local_solver.assignments; eps2 }, failures =
        Local_solver.solve ~sup:run.sup ~alpha ~t_sim p
      in
      (assignments, eps2, failures)
  | Fixed p ->
      let { Fixed_solver.assignments; eps2 }, failures =
        Fixed_solver.solve ~domains:run.fixed_domains ~sup:run.sup
          ~alpha ~t_sim p
      in
      (assignments, eps2, failures)

(* components write disjoint variable slots, and the pool collects by
   index, so [env] matches the sequential sweep *)
let apply_solved env solved =
  let failures = List.concat_map (fun (_, _, fs) -> fs) solved in
  let eps2s =
    List.map
      (fun (assignments, eps2, _) ->
        List.iter (fun (v, x) -> env.(v) <- x) assignments;
        eps2)
      solved
  in
  (eps2s, failures)

let solve_components run ~env ~alpha ~t_sim prepared =
  apply_solved env
    (guarded_sweep run ~site:"local-solve" ~domains:run.comp_domains
       (solve_component run ~alpha ~t_sim)
       prepared)

(* §5.2: solve the components at [t_start], growing T by [dt_factor]
   while the runtime-fixed layout violates device geometry.
   Hard-bounded: exhaustion yields the best layout found plus a
   classified record, never an unbounded spin.  Only the final
   iteration's solver records survive — earlier layouts are discarded
   along with theirs. *)
let constraint_loop run ~device:(d : device) ~alpha ~t_start prepared =
  let retry_fault =
    Fault.fires (Supervisor.faults run.sup) ~site:"constraint-loop"
      ~component:(-1)
    = Some Fault.Retry
  in
  let rec attempt t iter =
    let env = Array.map (fun (v : Variable.t) -> v.Variable.init) d.vars in
    let eps2s, solve_failures =
      solve_components run ~env ~alpha ~t_sim:t prepared
    in
    let violations =
      if retry_fault then
        [ "injected fault: constraint-loop=retry forces a violation" ]
      else d.aais.Aais.check_fixed env
    in
    let out_of_iters = iter >= max_constraint_iters in
    if
      violations = [] || out_of_iters
      || Supervisor.site_expired run.sup ~site:"constraint-loop"
           ~component:(-1)
    then begin
      let exhausted =
        if violations = [] then None
        else
          let reason =
            if out_of_iters then
              Printf.sprintf
                "layout constraints unresolved after %d iterations: %s" iter
                (String.concat "; " violations)
            else
              Printf.sprintf
                "deadline expired with layout constraints unresolved after \
                 %d iterations: %s"
                iter
                (String.concat "; " violations)
          in
          warn run reason;
          (* the layout breaks the device's constraints: a result the
             compiler knows is wrong is not a success *)
          Some
            (Failure.make ~component:(-1) ~site:"constraint-loop" ~stage:""
               ~fatal:true
               ~class_:
                 (if out_of_iters then Failure.Position_retry_exhausted
                  else Failure.Deadline_expired)
               reason)
      in
      { t_sim = t; env; eps2s; solve_failures; iterations = iter; exhausted }
    end
    else attempt (t *. dt_factor) (iter + 1)
  in
  attempt t_start 0

let alpha_achieved_of_env ~domains ~channels ~env ~t_sim =
  let achieved (c : Instruction.channel) =
    Instruction.eval_channel c ~env *. t_sim
  in
  (* a kernel eval is ~10 ns; only very wide channel sets outweigh the
     pool dispatch (the position solve's granularity threshold) *)
  if Array.length channels < Fixed_solver.par_threshold then
    Array.map achieved channels
  else Qturbo_par.Pool.parallel_map ~domains achieved channels

let fixed_channels (d : device) =
  let mask = Array.make (Array.length d.channels) false in
  List.iter
    (function
      | Fixed p ->
          List.iter
            (fun cid -> mask.(cid) <- true)
            (Fixed_solver.component p).channel_ids
      | Dynamic _ -> ())
    d.prepared;
  mask

(* §6.2: the §4.1 system with the fixed channels' achieved contribution
   to each row ([contribution cid coeff]) moved to the right-hand side,
   re-solved for the dynamic channels — the skeleton's CSR filtered to
   the dynamic columns, in O(nnz).  The fixed channels' entries of the
   result are not meaningful: a dynamic component reads only its own
   channels. *)
let refined_alpha ~fixed ~contribution (ls : Linear_system.t) =
  let module Csr = Qturbo_linalg.Csr in
  let csr = ls.csr in
  let row_ptr = Csr.row_ptr csr
  and col_idx = Csr.col_idx csr
  and values = Csr.values csr in
  let rhs =
    Array.mapi
      (fun i b ->
        let fixed_part = ref 0.0 in
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let cid = col_idx.(k) in
          if fixed.(cid) then
            fixed_part := !fixed_part +. contribution cid values.(k)
        done;
        b -. !fixed_part)
      ls.b_tar
  in
  (Qturbo_linalg.Sparse_solve.solve_csr
     (Csr.filter_cols (fun cid -> not fixed.(cid)) csr)
     ~rhs)
    .Qturbo_linalg.Sparse_solve.x

(* Refinement of a static compile: re-solve the dynamic components at
   the layout's T against the residual left by the achieved fixed
   channels.  Returns the refined env and residuals, the pipeline-level
   record of an expired deadline, and the re-solves' records. *)
let refine run ~device:(d : device) ~ls ~alpha (layout : layout) =
  if not run.options.refine then (layout.env, layout.eps2s, [], [])
  else
    match
      expiry run ~site:"refine"
        "deadline expired before refinement; returning unrefined result"
    with
    | _ :: _ as expired -> (layout.env, layout.eps2s, expired, [])
    | [] ->
        let t_sim = layout.t_sim in
        let achieved =
          alpha_achieved_of_env ~domains:run.options.domains
            ~channels:d.channels ~env:layout.env ~t_sim
        in
        let alpha_refined =
          refined_alpha ~fixed:(fixed_channels d)
            ~contribution:(fun cid coeff -> coeff *. achieved.(cid))
            ls
        in
        let env = Array.copy layout.env in
        let eps2s, failures =
          apply_solved env
            (guarded_sweep run ~site:"refine" ~domains:run.comp_domains
               (function
                 | Fixed p ->
                     (* unchanged: recompute its eps2 against original
                        targets *)
                     ( [],
                       List.fold_left
                         (fun acc cid ->
                           acc +. Float.abs (achieved.(cid) -. alpha.(cid)))
                         0.0 (Fixed_solver.component p).channel_ids,
                       [] )
                 | Dynamic _ as s ->
                     solve_component run ~alpha:alpha_refined ~t_sim s)
               d.prepared)
        in
        (env, eps2s, [], failures)

let conclude run failures =
  let degraded = List.exists (fun f -> f.Failure.fatal) failures in
  if degraded && not (Supervisor.best_effort run.sup) then
    raise (Failure.Failed failures);
  degraded

let relative_error ~error_l1 systems =
  let b_norm =
    List.fold_left
      (fun acc (ls : Linear_system.t) ->
        Array.fold_left (fun acc b -> acc +. Float.abs b) acc ls.b_tar)
      0.0 systems
  in
  if b_norm > 0.0 then error_l1 /. b_norm *. 100.0 else 0.0

(* What the per-instance stages leave for a tail: per instance, its
   system and its §4.1 solution and residual. *)
type instances = {
  run : run;
  systems : Linear_system.t list;
  alphas : float array array;
  eps1s : float array;
  diagnostics : Diagnostic.t list;
}

(* The per-instance stages, for any number of instances sharing [plan]:
   right-hand sides, the precheck and the linear solves. *)
let instances ~options ~strict ?t_max ~plan ~t_tar targets =
  let d = plan.device in
  let aais = d.aais in
  let run = start ~options d in
  let systems =
    List.map
      (fun target -> Linear_system.instantiate plan.skeleton ~target ~t_tar)
      targets
  in
  !stage_hook "precheck";
  (* a single instance reports its findings as [Compiler.analyze] (and
     so [qturbo check]) does *)
  let diagnostics =
    match targets with
    | [ target ] -> diagnose ?t_max ~aais ~plan ~t_tar target
    | _ -> dedup (List.concat_map (diagnose ?t_max ~aais ~plan ~t_tar) targets)
  in
  enforce run ~strict diagnostics;
  !stage_hook "linear-solve";
  let module S = Qturbo_linalg.Sparse_solve in
  let solutions =
    Qturbo_par.Pool.parallel_map_list ~domains:options.domains ~chunk:1
      (linear_solve options) systems
  in
  List.iter2
    (fun (ls : Linear_system.t) (lin : S.result) ->
      Log.debug (fun m ->
          m
            "linear system: %d rows, %d channels, greedy %d / dense %d, \
             eps1 %.3g"
            (Term_index.count ls.index) (Array.length d.channels)
            lin.stats.greedy_solved lin.stats.dense_solved lin.residual_l1))
    systems solutions;
  {
    run;
    systems;
    alphas =
      Array.of_list (List.map (fun (lin : S.result) -> lin.x) solutions);
    eps1s =
      Array.of_list
        (List.map (fun (lin : S.result) -> lin.residual_l1) solutions);
    diagnostics;
  }

(* K = 1: the §5.1 search runs the components on the pool, the
   constraint loop solves every component from the start time, and
   refinement runs at the loop's T. *)
let static_tail ~t0 ~provenance ~plan (i : instances) =
  let run = i.run and d = plan.device in
  let options = run.options in
  let ls = List.hd i.systems and alpha = i.alphas.(0) in
  let timed =
    guarded_sweep run ~site:"min-time" ~domains:run.comp_domains
      (component_min_time run ~alpha) d.prepared
  in
  let min_times = List.map fst timed in
  let bottleneck = List.fold_left Float.max 0.0 min_times in
  !stage_hook "local-solve";
  Log.debug (fun m ->
      m "locality: %d components, bottleneck evolution time %.4g"
        (List.length d.prepared) bottleneck);
  let layout =
    constraint_loop run ~device:d ~alpha
      ~t_start:(List.hd (start_times run [ bottleneck ]))
      d.prepared
  in
  let t_sim = layout.t_sim in
  Log.debug (fun m ->
      m "localized systems solved at T = %.4g after %d constraint iterations"
        t_sim layout.iterations);
  let env, eps2s, refine_expired, refine_failures =
    refine run ~device:d ~ls ~alpha layout
  in
  let alpha_achieved =
    alpha_achieved_of_env ~domains:options.domains ~channels:d.channels ~env
      ~t_sim
  in
  let error_l1 = Linear_system.residual_l1 ls ~alpha:alpha_achieved in
  let eps2_total = List.fold_left ( +. ) 0.0 eps2s in
  let components =
    List.map2
      (fun s (tmin, eps2) ->
        let comp = component s in
        {
          classification = classification_name s;
          channels = List.length comp.Locality.channel_ids;
          variables = List.length comp.Locality.var_ids;
          min_time = tmin;
          eps2;
        })
      d.prepared
      (List.combine min_times eps2s)
  in
  (* in pipeline order: evolution-time search and pipeline-level records
     (constraint loop, refinement expiry), then the final constraint
     iteration's solve sweep (component order — the pool collects by
     index), then refinement re-solves *)
  let failures =
    List.concat_map snd timed
    @ Option.to_list layout.exhausted
    @ refine_expired @ layout.solve_failures @ refine_failures
  in
  let degraded = conclude run failures in
  let now = Qturbo_util.Clock.now () in
  let cache = Plan_cache.stats plan_cache in
  let kstats =
    if options.plan_cache then Plan_cache.key_stats plan_cache plan.lru_key
    else Plan_cache.zero_key_stats
  in
  {
    env;
    t_sim;
    alpha_target = alpha;
    alpha_achieved;
    error_l1;
    relative_error = relative_error ~error_l1 i.systems;
    eps1 = i.eps1s.(0);
    eps2_total;
    theorem1_bound = (Linear_system.norm1 ls *. eps2_total) +. i.eps1s.(0);
    components;
    constraint_iterations = layout.iterations;
    compile_seconds = now -. t0;
    warnings = warnings run;
    diagnostics = i.diagnostics;
    failures;
    degraded;
    plan =
      {
        cache_enabled = options.plan_cache;
        cache_hit = provenance = Cached;
        store_enabled = Option.is_some !store;
        store_hit = provenance = Stored;
        cache_hits = cache.Plan_cache.hits;
        cache_misses = cache.Plan_cache.misses;
        cache_discarded = cache.Plan_cache.discarded;
        key_hits = kstats.Plan_cache.key_hits;
        key_misses = kstats.Plan_cache.key_misses;
        key_evictions = kstats.Plan_cache.key_evictions;
        build_seconds =
          (* a store hit skipped the front end too; the build time baked
             into the deserialized plan belongs to the writer process *)
          (match provenance with Built -> plan.build_seconds | _ -> 0.0);
        solve_seconds = now -. t0;
      };
  }

module Segments = struct
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
end

(* K >= 2 (§5.3): the §5.1 search runs the instances on the pool, each
   folding its components in order (so no per-component list outlives
   the sweep).  The binding segment, the one demanding the largest
   fixed-channel amplitude, fixes the layout; the constraint loop solves
   only the fixed components, from that segment's start time.  Every
   segment's duration is stretched so the shared layout integrates to
   the segment's required B, never below its own start time, and the
   binding segment's is at least the loop's T.  Each segment then
   refines and re-solves its dynamic components at its own duration. *)
let shared_layout_tail ~t0 ~provenance ~plan (i : instances) =
  let run = i.run and d = plan.device and alphas = i.alphas in
  let options = run.options in
  let timed =
    guarded_sweep run ~site:"min-time" ~domains:options.domains
      (fun alpha ->
        List.fold_left
          (fun (bottleneck, fs) p ->
            let t, f = component_min_time run ~alpha p in
            (Float.max bottleneck t, fs @ f))
          (0.0, []) d.prepared)
      (Array.to_list alphas)
  in
  !stage_hook "local-solve";
  let t_dyn = Array.of_list (start_times run (List.map fst timed)) in
  let fixed = fixed_channels d in
  let demand s =
    let dm = ref 0.0 in
    Array.iteri
      (fun cid is_fixed ->
        if is_fixed then
          dm := Float.max !dm (Float.abs alphas.(s).(cid) /. t_dyn.(s)))
      fixed;
    !dm
  in
  let sb = ref 0 in
  for s = 1 to Array.length alphas - 1 do
    if demand s > demand !sb then sb := s
  done;
  let sb = !sb in
  let fixed_prepared, dynamic_prepared =
    List.partition (function Fixed _ -> true | Dynamic _ -> false) d.prepared
  in
  let layout =
    constraint_loop run ~device:d ~alpha:alphas.(sb) ~t_start:t_dyn.(sb)
      fixed_prepared
  in
  (* the shared layout's amplitude per fixed channel, evaluated once *)
  let fixed_val =
    Array.mapi
      (fun cid is_fixed ->
        if is_fixed then
          Instruction.eval_channel d.channels.(cid) ~env:layout.env
        else 0.0)
      fixed
  in
  let duration s =
    let t_fixed = ref 0.0 in
    Array.iteri
      (fun cid is_fixed ->
        let amp = fixed_val.(cid) in
        if is_fixed && Float.abs amp > 1e-12 then
          t_fixed := Float.max !t_fixed (alphas.(s).(cid) /. amp))
      fixed;
    let t = Float.max t_dyn.(s) !t_fixed in
    if s = sb then Float.max t layout.t_sim else t
  in
  let solve_segment (s, ls) =
    let t_s = duration s in
    let alpha =
      if options.refine then
        refined_alpha ~fixed
          ~contribution:(fun cid coeff -> coeff *. fixed_val.(cid) *. t_s)
          ls
      else alphas.(s)
    in
    let env = Array.copy layout.env in
    let _, failures =
      solve_components run ~env ~alpha ~t_sim:t_s dynamic_prepared
    in
    let achieved =
      alpha_achieved_of_env ~domains:options.domains ~channels:d.channels
        ~env ~t_sim:t_s
    in
    ( Segments.
        {
          env;
          duration = t_s;
          error_l1 = Linear_system.residual_l1 ls ~alpha:achieved;
          eps1 = i.eps1s.(s);
        },
      failures )
  in
  (* an expired [segment-loop] deadline gets one classified pipeline
     record; the short-circuiting supervised solves carry the detail *)
  let segment_loop_expired =
    expiry run ~site:"segment-loop"
      "deadline expired entering the segment sweep"
  in
  (* segments only read the shared layout; solve them on the pool *)
  let segment_pairs =
    guarded_sweep run ~site:"segment-loop" ~domains:options.domains
      solve_segment
      (List.mapi (fun s ls -> (s, ls)) i.systems)
  in
  let segments = List.map fst segment_pairs in
  let error_l1 =
    List.fold_left
      (fun acc (r : Segments.segment_result) -> acc +. r.error_l1)
      0.0 segments
  in
  (* in pipeline order: evolution-time search, the binding layout's
     constraint loop, then the segment sweep (segment order) *)
  let failures =
    List.concat_map snd timed @ layout.solve_failures
    @ Option.to_list layout.exhausted
    @ segment_loop_expired
    @ List.concat_map snd segment_pairs
  in
  let degraded = conclude run failures in
  {
    Segments.segments;
    t_sim =
      List.fold_left
        (fun acc (r : Segments.segment_result) -> acc +. r.duration)
        0.0 segments;
    error_l1;
    relative_error = relative_error ~error_l1 i.systems;
    binding_segment = sb;
    compile_seconds = Qturbo_util.Clock.now () -. t0;
    warnings = warnings run;
    diagnostics = i.diagnostics;
    failures;
    degraded;
    plan_builds = (if provenance = Built then 1 else 0);
  }

let solve ?(options = default_options) ?(strict = true) ?t_max
    ?(provenance = Built) ~plan ~coeffs:target ~t_tar () =
  validate_target ~aais:plan.device.aais ~target ~t_tar;
  let plan_index = Linear_system.skeleton_index plan.skeleton in
  List.iter
    (fun (s, _) ->
      if
        (not (Pauli_string.is_identity s))
        && Term_index.row_of plan_index s = None
      then
        invalid_arg "Compile_plan.solve: target term outside the plan's shape")
    (Pauli_sum.terms target);
  let t0 = Qturbo_util.Clock.now () in
  static_tail ~t0 ~provenance ~plan
    (instances ~options ~strict ?t_max ~plan ~t_tar [ target ])

let solve_segments ?(options = default_options) ?(strict = true) ?t_max
    ?(provenance = Built) ~plan ~t_tar targets =
  if targets = [] then invalid_arg "Compile_plan.solve_segments: no segments";
  let t0 = Qturbo_util.Clock.now () in
  let i = instances ~options ~strict ?t_max ~plan ~t_tar targets in
  match targets with
  | [ _ ] ->
      let r = static_tail ~t0 ~provenance ~plan i in
      {
        Segments.segments =
          [
            {
              env = r.env;
              duration = r.t_sim;
              error_l1 = r.error_l1;
              eps1 = r.eps1;
            };
          ];
        t_sim = r.t_sim;
        error_l1 = r.error_l1;
        relative_error = r.relative_error;
        binding_segment = 0;
        compile_seconds = r.compile_seconds;
        warnings = r.warnings;
        diagnostics = r.diagnostics;
        failures = r.failures;
        degraded = r.degraded;
        plan_builds = (if provenance = Built then 1 else 0);
      }
  | _ -> shared_layout_tail ~t0 ~provenance ~plan i

let compile ?(options = default_options) ?(strict = true) ?t_max ~aais ~target
    ~t_tar () =
  validate_target ~aais ~target ~t_tar;
  let t0 = Qturbo_util.Clock.now () in
  let plan, provenance = obtain ~options ~aais ~target in
  let r =
    solve ~options ~strict ?t_max ~provenance ~plan ~coeffs:target ~t_tar ()
  in
  { r with compile_seconds = Qturbo_util.Clock.now () -. t0 }
