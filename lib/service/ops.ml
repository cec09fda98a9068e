(* Shared request logic: everything the CLI's --json paths and the
   daemon both need — model construction, backend resolution, range
   parsing, and the machine-readable payload builders.  Keeping a
   single implementation here is what makes a CLI invocation and a
   daemon request byte-identical for the same job. *)

module Backend = Qturbo_backend.Backend
module D = Qturbo_analysis.Diagnostic
module C = Qturbo_core.Compiler

let model_names =
  [
    "ising-chain"; "ising-cycle"; "kitaev"; "ising-cycle+"; "heis-chain";
    "mis-chain"; "qaoa-chain"; "pxp"; "ising-grid";
  ]

let build_model ~name ~n ~j ~h =
  match name with
  | "ising-chain" -> Qturbo_models.Benchmarks.ising_chain ?j ?h ~n ()
  | "ising-cycle" -> Qturbo_models.Benchmarks.ising_cycle ?j ?h ~n ()
  | "kitaev" -> Qturbo_models.Benchmarks.kitaev ?h ~n ()
  | "ising-cycle+" -> Qturbo_models.Benchmarks.ising_cycle_plus ?j ?h ~n ()
  | "heis-chain" -> Qturbo_models.Benchmarks.heisenberg_chain ?j ?h ~n ()
  | "mis-chain" -> Qturbo_models.Benchmarks.mis_chain ~n ()
  | "qaoa-chain" -> Qturbo_models.Benchmarks.qaoa_chain ?gamma:j ?beta:h ~n ()
  | "pxp" -> Qturbo_models.Benchmarks.pxp ?j ?h ~n ()
  | "ising-grid" ->
      let side = int_of_float (Float.round (sqrt (float_of_int n))) in
      if side * side <> n then
        invalid_arg "ising-grid needs a square qubit count";
      Qturbo_models.Benchmarks.ising_grid ?j ?h ~rows:side ~cols:side ()
  | other -> invalid_arg ("unknown model: " ^ other)

let resolve_model ~hamiltonian ~model_name ~n ~j ~h =
  let j = if j = 0.0 then None else Some j in
  let h = if h = 0.0 then None else Some h in
  match (hamiltonian, model_name) with
  | Some text, _ ->
      (* the register size is exactly what the expression touches *)
      let sum = Qturbo_pauli.Pauli_parse.parse_exn text in
      Qturbo_models.Model.static ~name:"custom"
        ~n:(Qturbo_pauli.Pauli_sum.n_qubits sum)
        sum
  | None, Some name -> build_model ~name ~n ~j ~h
  | None, None -> failwith "provide either --model or --hamiltonian"

(* Backend instances by the exact arguments [instantiate] receives, so a
   daemon request for a device it has already built skips the AAIS build
   and, through the AAIS's key memo, the key render.  Sharing is safe
   because nothing reachable from an instance is mutated after its
   builder returns.  The capacity is the plan LRU's: the serve mix cycles
   through a dozen devices, and an instance whose plans are resident
   costs nothing extra, since they hold the same AAIS.
   [Compile_plan.clear_caches] empties it with every other cache. *)
let instances : Backend.instance Qturbo_core.Plan_cache.t =
  Qturbo_core.Plan_cache.create ~capacity:32

let instance_key ~backend ~device ~cutoff ~model_name ~n =
  let opt = function None -> "-" | Some s -> Printf.sprintf "%S" s in
  Printf.sprintf "%S %s %s %S %d" backend (opt device) (opt cutoff) model_name n

(* Resolve --backend/--device/--cutoff through the registry, rejecting
   explicitly-passed flags the chosen backend does not declare (on every
   request: a rejection is never cached). *)
let resolve_backend ~backend ~device ~cutoff ~ramp ~model_name ~n =
  let b = Backend.find_exn backend in
  Backend.reject_unsupported b ~device ~cutoff ~ramp;
  let key = instance_key ~backend ~device ~cutoff ~model_name ~n in
  match Qturbo_core.Plan_cache.find instances key with
  | Some inst -> inst
  | None ->
      let inst = b.Backend.instantiate ?device ?cutoff ~model_name ~n () in
      Qturbo_core.Plan_cache.add instances key inst;
      inst

let static_target model =
  Qturbo_pauli.Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at model ~s:0.0)

(* ---- range parsing (sweep grids) ------------------------------------- *)

let parse_range ~what text =
  let fail () =
    failwith
      (Printf.sprintf "%s: expected VALUE or LO:HI:COUNT, got %s" what text)
  in
  let num s =
    match float_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> fail ()
  in
  match String.split_on_char ':' text with
  | [ v ] -> [ num v ]
  | [ lo; hi; count ] ->
      let lo = num lo and hi = num hi in
      let count =
        match int_of_string_opt (String.trim count) with
        | Some k when k >= 1 -> k
        | _ -> fail ()
      in
      if count = 1 then [ lo ]
      else
        List.init count (fun i ->
            lo +. (float_of_int i *. (hi -. lo) /. float_of_int (count - 1)))
  | _ -> fail ()

let parse_int_list ~what text =
  List.filter_map
    (fun s ->
      let s = String.trim s in
      if s = "" then None
      else
        match int_of_string_opt s with
        | Some k when k >= 1 -> Some k
        | _ -> failwith (what ^ ": expected comma-separated counts >= 1"))
    (String.split_on_char ',' text)

(* ---- cache / store telemetry ------------------------------------------ *)

(* Plan-cache keys are compact (solver flag and two hex digests);
   display layers show a stable digest prefix of them. *)
let digest_key key = String.sub (Digest.to_hex (Digest.string key)) 0 12

let plan_cache_json () =
  let s = Qturbo_core.Compile_plan.cache_stats () in
  let per_key = Qturbo_core.Compile_plan.cache_per_key () in
  Printf.sprintf
    {|{"hits":%d,"misses":%d,"evictions":%d,"discarded":%d,"size":%d,"capacity":%d,"per_key":[%s]}|}
    s.Qturbo_core.Plan_cache.hits s.Qturbo_core.Plan_cache.misses
    s.Qturbo_core.Plan_cache.evictions s.Qturbo_core.Plan_cache.discarded
    s.Qturbo_core.Plan_cache.size s.Qturbo_core.Plan_cache.capacity
    (String.concat ","
       (List.map
          (fun (key, (k : Qturbo_core.Plan_cache.key_stats)) ->
            Printf.sprintf
              {|{"key":"%s","hits":%d,"misses":%d,"evictions":%d,"discarded":%d}|}
              (digest_key key) k.Qturbo_core.Plan_cache.key_hits
              k.Qturbo_core.Plan_cache.key_misses
              k.Qturbo_core.Plan_cache.key_evictions
              k.Qturbo_core.Plan_cache.key_discarded)
          per_key))

(* The daemon's [stats] op only: compile, check, lint and sweep payloads
   stay byte-identical to the CLI's, which never reuses an instance. *)
let instance_cache_json () =
  let s = Qturbo_core.Plan_cache.stats instances in
  Printf.sprintf
    {|{"hits":%d,"misses":%d,"evictions":%d,"size":%d,"capacity":%d}|}
    s.Qturbo_core.Plan_cache.hits s.Qturbo_core.Plan_cache.misses
    s.Qturbo_core.Plan_cache.evictions s.Qturbo_core.Plan_cache.size
    s.Qturbo_core.Plan_cache.capacity

let plan_store_json () =
  match Qturbo_core.Compile_plan.store_stats () with
  | None -> "null"
  | Some s ->
      Printf.sprintf
        {|{"dir":%s,"hits":%d,"misses":%d,"corrupt":%d,"version_mismatch":%d,"writes":%d,"write_errors":%d}|}
        (Qturbo_util.Json.quote
           (Option.value (Qturbo_core.Compile_plan.store_dir ()) ~default:""))
        s.Qturbo_store.Plan_store.hits s.Qturbo_store.Plan_store.misses
        s.Qturbo_store.Plan_store.corrupt
        s.Qturbo_store.Plan_store.version_mismatch
        s.Qturbo_store.Plan_store.writes s.Qturbo_store.Plan_store.write_errors

(* ---- payload builders -------------------------------------------------- *)

(* The static --json compile: compile, verify, splice the pulse when
   asked.  Byte-for-byte the report `qturbo compile --json` prints. *)
let compile_report_json ~options ~inst ~target ~t_tar ~show_pulse ~ramp () =
  let r = C.compile ~options ~aais:inst.Backend.aais ~target ~t_tar () in
  let report =
    Qturbo_core.Verifier.report_to_json (inst.Backend.verify ~target ~t_tar r)
  in
  if show_pulse then begin
    let pulse =
      inst.Backend.extract ~env:r.C.env ~t_sim:r.C.t_sim
    in
    let pulse = if ramp then inst.Backend.ramp pulse else pulse in
    String.sub report 0 (String.length report - 1)
    ^ ",\"pulse\":" ^ Backend.pulse_json pulse ^ "}"
  end
  else report

(* What `qturbo check` reports: the device spec's findings, then the
   analyzer's over [aais] (the instance's, or a copy with a seeded
   defect). *)
let check_diagnostics ~inst ~aais ~target ~t_tar () =
  inst.Backend.spec_diagnostics
  @ C.analyze ~t_max:inst.Backend.max_time ~aais ~target ~t_tar ()

let check_report_json ~inst ~aais ~target ~t_tar () =
  D.list_to_json (check_diagnostics ~inst ~aais ~target ~t_tar ())

(* The `qturbo lint --json` payload: what was linted, then the report
   object's fields. *)
let lint_payload ~model_label ~backend ~channels ~rows diags =
  let report = D.list_to_json diags in
  Printf.sprintf "{\"model\":%s,\"backend\":%s,\"channels\":%d,\"rows\":%d,%s}"
    (Qturbo_util.Json.quote model_label)
    (Qturbo_util.Json.quote backend)
    channels rows
    (String.sub report 1 (String.length report - 2))

let plan_rows (plan : Qturbo_core.Compile_plan.t) =
  Qturbo_core.Term_index.count
    (Qturbo_core.Linear_system.skeleton_index
       plan.Qturbo_core.Compile_plan.skeleton)

(* `qturbo lint --json` without an injected defect: the kernel findings
   over the plan a compile of [target] would use.  That plan passed its
   lint gate, which reports only errors, so it adds no finding. *)
let lint_report_json ~model_label ~backend ~inst ~target () =
  let module CP = Qturbo_core.Compile_plan in
  let aais = inst.Backend.aais in
  let plan, _ = CP.obtain ~options:C.default_options ~aais ~target in
  lint_payload ~model_label ~backend
    ~channels:(Qturbo_aais.Aais.channel_count aais)
    ~rows:(plan_rows plan)
    (Qturbo_analysis.Kernel_check.check_aais aais)

let sweep_header ~probe ~backend ~n ~mode ~job_count ~batch_domains =
  Printf.sprintf
    {|"sweep":{"model":%s,"backend":%s,"n":%d,"mode":"%s","jobs":%d,"batch_domains":%d}|}
    (Qturbo_util.Json.quote probe.Qturbo_models.Model.name)
    (Qturbo_util.Json.quote backend)
    n mode job_count batch_domains

(* `qturbo sweep --json`, static mode: one batch over a (j, h, t) job
   list, each job reported through the backend's verifier. *)
let sweep_static_json ~options ~batch_domains ~backend ~inst ~probe ~target_of
    ~jobs () =
  let jf = Qturbo_util.Json.float_lit in
  let n = probe.Qturbo_models.Model.n in
  let batch = List.map (fun (j, h, t) -> (target_of ~j ~h, t)) jobs in
  let results =
    C.compile_batch ~options ~batch_domains ~aais:inst.Backend.aais batch
  in
  let reports =
    List.map2
      (fun (target, t_tar) r -> inst.Backend.verify ~target ~t_tar r)
      batch results
  in
  let job_json (j, h, t) report =
    Printf.sprintf {|{"j":%s,"h":%s,"t_tar":%s,"report":%s}|} (jf j) (jf h)
      (jf t)
      (Qturbo_core.Verifier.report_to_json report)
  in
  Printf.sprintf {|{%s,"jobs":[%s],"plan_cache":%s}|}
    (sweep_header ~probe ~backend ~n ~mode:"static"
       ~job_count:(List.length jobs) ~batch_domains)
    (String.concat "," (List.map2 job_json jobs reports))
    (plan_cache_json ())

(* `qturbo sweep --json`, time-dependent mode: (segments, t_tar) jobs
   re-discretizing one driven model. *)
let sweep_td_json ~options ~batch_domains ~backend ~inst ~probe ~td_jobs () =
  let jf = Qturbo_util.Json.float_lit in
  let n = probe.Qturbo_models.Model.n in
  let results =
    List.map
      (fun (segments, t_tar) ->
        ( segments,
          t_tar,
          Qturbo_core.Td_compiler.compile ~options ~aais:inst.Backend.aais
            ~model:probe ~t_tar ~segments () ))
      td_jobs
  in
  let job_json (segments, t_tar, (td : Qturbo_core.Td_compiler.result)) =
    Printf.sprintf
      {|{"segments":%d,"t_tar":%s,"t_sim":%s,"relative_error":%s,"plan_builds":%d,"degraded":%b}|}
      segments (jf t_tar)
      (jf td.Qturbo_core.Td_compiler.t_sim)
      (jf td.Qturbo_core.Td_compiler.relative_error)
      td.Qturbo_core.Td_compiler.plan_builds
      td.Qturbo_core.Td_compiler.degraded
  in
  Printf.sprintf {|{%s,"jobs":[%s],"plan_cache":%s}|}
    (sweep_header ~probe ~backend ~n ~mode:"td"
       ~job_count:(List.length td_jobs) ~batch_domains)
    (String.concat "," (List.map job_json results))
    (plan_cache_json ())

(* ---- daemon request handlers ------------------------------------------ *)

let options_with ~domains ~best_effort ~deadline ~no_plan_cache =
  {
    C.default_options with
    C.domains = (if domains > 0 then domains else C.default_options.C.domains);
    best_effort;
    deadline_seconds = (if deadline > 0.0 then Some deadline else None);
    plan_cache = not no_plan_cache;
  }

let resolve_job (j : Protocol.job) ~ramp =
  let model =
    resolve_model ~hamiltonian:j.Protocol.hamiltonian
      ~model_name:j.Protocol.model ~n:j.Protocol.n ~j:j.Protocol.j
      ~h:j.Protocol.h
  in
  let n = model.Qturbo_models.Model.n in
  let inst =
    resolve_backend ~backend:j.Protocol.backend ~device:j.Protocol.device
      ~cutoff:j.Protocol.cutoff ~ramp
      ~model_name:model.Qturbo_models.Model.name ~n
  in
  (model, inst)

let handle_compile (c : Protocol.compile) ~deadline_cap =
  let j = c.Protocol.job in
  let model, inst = resolve_job j ~ramp:c.Protocol.ramp in
  if Qturbo_models.Model.is_driven model then
    failwith "service compile supports static models only (like --json)";
  let deadline =
    match (c.Protocol.deadline, deadline_cap) with
    | 0.0, cap -> Option.value cap ~default:0.0
    | d, None -> d
    | d, Some cap -> Float.min d cap
  in
  let options =
    options_with ~domains:c.Protocol.domains
      ~best_effort:c.Protocol.best_effort ~deadline
      ~no_plan_cache:c.Protocol.no_plan_cache
  in
  compile_report_json ~options ~inst ~target:(static_target model)
    ~t_tar:j.Protocol.t_tar ~show_pulse:c.Protocol.show_pulse
    ~ramp:c.Protocol.ramp ()

let handle_check (j : Protocol.job) =
  let model, inst = resolve_job j ~ramp:false in
  check_report_json ~inst ~aais:inst.Backend.aais
    ~target:(static_target model) ~t_tar:j.Protocol.t_tar ()

let handle_lint (j : Protocol.job) =
  let model, inst = resolve_job j ~ramp:false in
  lint_report_json ~model_label:model.Qturbo_models.Model.name
    ~backend:j.Protocol.backend ~inst ~target:(static_target model) ()

let handle_sweep (s : Protocol.sweep) =
  let j = s.Protocol.sweep_job in
  let model_of ~j:jc ~h =
    resolve_model ~hamiltonian:j.Protocol.hamiltonian
      ~model_name:j.Protocol.model ~n:j.Protocol.n ~j:jc ~h
  in
  let probe = model_of ~j:0.0 ~h:0.0 in
  let n = probe.Qturbo_models.Model.n in
  let inst =
    resolve_backend ~backend:j.Protocol.backend ~device:j.Protocol.device
      ~cutoff:j.Protocol.cutoff ~ramp:false
      ~model_name:probe.Qturbo_models.Model.name ~n
  in
  let options =
    options_with ~domains:s.Protocol.sweep_domains
      ~best_effort:s.Protocol.sweep_best_effort ~deadline:0.0
      ~no_plan_cache:s.Protocol.sweep_no_plan_cache
  in
  let batch_domains =
    if s.Protocol.batch_domains > 0 then s.Protocol.batch_domains
    else options.C.domains
  in
  let ts = parse_range ~what:"sweep_t" s.Protocol.sweep_t in
  if Qturbo_models.Model.is_driven probe then begin
    let seg_list =
      parse_int_list ~what:"sweep_segments" s.Protocol.sweep_segments
    in
    if seg_list = [] then
      failwith "time-dependent sweeps need sweep_segments, e.g. \"2,4,8\"";
    let td_jobs =
      List.concat_map
        (fun segments -> List.map (fun t -> (segments, t)) ts)
        seg_list
    in
    sweep_td_json ~options ~batch_domains ~backend:j.Protocol.backend ~inst
      ~probe ~td_jobs ()
  end
  else begin
    let js = parse_range ~what:"sweep_j" s.Protocol.sweep_j in
    let hs = parse_range ~what:"sweep_h" s.Protocol.sweep_h in
    let jobs =
      List.concat_map
        (fun jv -> List.concat_map (fun h -> List.map (fun t -> (jv, h, t)) ts) hs)
        js
    in
    if jobs = [] then failwith "sweep: no jobs";
    let target_of ~j:jc ~h = static_target (model_of ~j:jc ~h) in
    sweep_static_json ~options ~batch_domains ~backend:j.Protocol.backend
      ~inst ~probe ~target_of ~jobs ()
  end
