(* The [serve] workload: a [qturbo serve --plan-store DIR] subprocess
   and one closed-loop client, plus the in-process replay the traced
   run uses.  Every daemon, socket and store this module creates lives
   under one run directory, and {!with_run_dir} removes it on every exit
   path. *)

module CP = Qturbo_core.Compile_plan
module Json = Qturbo_util.Json
module Client = Qturbo_service.Client
module Server = Qturbo_service.Server
module Protocol = Qturbo_service.Protocol
module Ops = Qturbo_service.Ops
module Rng = Qturbo_util.Rng
module C = Qturbo_core.Compiler
module V = Qturbo_core.Verifier
module Backend = Qturbo_backend.Backend
module Model = Qturbo_models.Model

let now = Unix.gettimeofday

(* ---- request mix -------------------------------------------------------- *)

type kind =
  | Compile of { show_pulse : bool; ramp : bool }
  | Check
  | Lint
  | Static_sweep
  | Td_sweep of string  (** segment counts *)

type template = { kind : kind; shape : Work.shape }

let kind_name = function
  | Compile _ -> "compile"
  | Check -> "check"
  | Lint -> "lint"
  | Static_sweep | Td_sweep _ -> "sweep"

let jf = Json.float_lit
let q = Json.quote

let job_fields (s : Work.shape) =
  Printf.sprintf {|"model":%s,"n":%d,"backend":%s|} (q s.Work.model) s.Work.n
    (q s.Work.backend)

let coeff_fields ~j ~h ~t =
  Printf.sprintf {|"j":%s,"h":%s,"t_tar":%s|} (jf j) (jf h) (jf t)

(* One request line for [template] with seeded coefficients.  A static
   sweep is a 2x2 (j, h) grid at one target time. *)
let render rng (t : template) =
  let j = Work.jitter rng in
  let h = Work.jitter rng in
  let tt = Work.jitter rng in
  let job = job_fields t.shape in
  match t.kind with
  | Compile { show_pulse; ramp } ->
      Printf.sprintf {|{"op":"compile",%s,%s%s%s}|} job
        (coeff_fields ~j ~h ~t:tt)
        (if show_pulse then {|,"show_pulse":true|} else "")
        (if ramp then {|,"ramp":true|} else "")
  | Check ->
      Printf.sprintf {|{"op":"check",%s,%s}|} job (coeff_fields ~j ~h ~t:tt)
  | Lint -> Printf.sprintf {|{"op":"lint",%s,%s}|} job (coeff_fields ~j ~h ~t:tt)
  | Static_sweep ->
      Printf.sprintf
        {|{"op":"sweep",%s,"sweep_j":"%.6f:%.6f:2","sweep_h":"%.6f:%.6f:2","sweep_t":"%.6f"}|}
        job j (j *. 1.05) h (h *. 1.05) tt
  | Td_sweep segments ->
      Printf.sprintf {|{"op":"sweep",%s,"sweep_t":"%.6f","sweep_segments":%s}|}
        job tt (q segments)

type request = { template : template; line : string }

let requests ~seed ~count templates =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  List.map
    (fun template -> { template; line = render rng template })
    (Work.rounds ~rng ~count templates)

(* ---- responses ---------------------------------------------------------- *)

(* Fields that depend on the answering process's cache state rather
   than on the request: the [plan_cache] objects (counters and wall
   times) and a time-dependent sweep job's [plan_builds]. *)
let rec strip_provenance = function
  | Json.Object fields ->
      Json.Object
        (List.filter_map
           (fun (k, v) ->
             if k = "plan_cache" || k = "plan_builds" then None
             else Some (k, strip_provenance v))
           fields)
  | Json.Array vs -> Json.Array (List.map strip_provenance vs)
  | v -> v

let parse_ok line =
  match Json.parse line with
  | Error msg -> raise (Work.Check_failed ("response is not strict JSON: " ^ msg))
  | Ok v -> (
      match Json.member "ok" v with
      | Some (Json.Bool true) -> v
      | _ ->
          raise
            (Work.Check_failed
               ("error response: " ^ String.sub line 0 (min 200 (String.length line)))))

let num path v =
  let rec go v = function
    | [] -> ( match v with Json.Number x -> Some x | _ -> None)
    | k :: rest -> Option.bind (Json.member k v) (fun v -> go v rest)
  in
  go v path

let elements path v =
  match Option.bind (Json.member "result" v) (Json.member path) with
  | Some (Json.Array vs) -> vs
  | _ -> []

let finite path v = match num path v with Some x -> Float.is_finite x | None -> false
let is field b v = Json.member field v = Some (Json.Bool b)

(* The output checks of {!Work} on what a payload carries: a verifier
   report ([theorem1_bound] is not in it), a time-dependent sweep job,
   a check or lint report. *)
let check_report v =
  Work.check (finite [ "error_l1" ] v) "verifier error is not finite";
  Work.check (is "consistent_with_compiler" true v) "verifier disagrees with the compiler";
  Work.check (is "degraded" false v) "degraded result";
  Work.check (is "executable" true v) "pulse is not executable"

let check_td_job v =
  Work.check
    (match num [ "t_sim" ] v with Some x -> Work.finite_pos x | None -> false)
    "t_sim is not positive and finite";
  Work.check (finite [ "relative_error" ] v) "compiler error is not finite";
  Work.check (is "degraded" false v) "degraded result"

let check_clean v = Work.check (num [ "errors" ] v = Some 0.0) "report has errors"

(* Check a parsed [ok] response, then return the pulse lengths and
   relative errors it reports: a compile reports its error and, with
   [show_pulse], the pulse duration; sweeps report per job. *)
let figures (t : template) v =
  let result = Option.value (Json.member "result" v) ~default:Json.Null in
  let jobs = elements "jobs" v in
  match t.kind with
  | Compile _ ->
      check_report result;
      ( Option.to_list (num [ "pulse"; "duration" ] result),
        Option.to_list (num [ "relative_error" ] result) )
  | Static_sweep ->
      Work.check (jobs <> []) "sweep without jobs";
      let reports = List.filter_map (Json.member "report") jobs in
      Work.check (List.length reports = List.length jobs) "sweep job without a report";
      List.iter check_report reports;
      ([], List.filter_map (num [ "relative_error" ]) reports)
  | Td_sweep _ ->
      Work.check (jobs <> []) "sweep without jobs";
      List.iter check_td_job jobs;
      ( List.filter_map (num [ "t_sim" ]) jobs,
        List.filter_map (num [ "relative_error" ]) jobs )
  | Check | Lint ->
      check_clean result;
      ([], [])

(* A payload with {!strip_provenance} applied, as bytes. *)
let stripped v = Json.emit (strip_provenance v)

(* The in-process payload for the same line, compared with the daemon's. *)
let same_as_in_process line v =
  let local, _ = Server.handle_request ~requests:0 ~started:0.0 line in
  match Json.parse local with
  | Ok lv -> stripped lv = stripped v
  | Error _ -> false

(* The negative case as a compile request (see {!Work.negative_flagged}). *)
let negative_request =
  let t = { kind = Compile { show_pulse = false; ramp = false };
            shape = { Work.backend = "rydberg"; model = "ising-chain"; n = 300; cutoff = None } }
  in
  { template = t;
    line = Printf.sprintf {|{"op":"compile",%s,%s}|} (job_fields t.shape)
        (coeff_fields ~j:1.0 ~h:1.0 ~t:1.0) }

(* ---- the traced replay ------------------------------------------------------ *)

(* [Server.handle_request] for the request kinds of the mix, step by step
   through the same public functions ([Protocol], [Ops], [Compile_plan],
   the backend instance), each step in its own span; a static compile
   runs as {!Work.compile_static} runs it traced.  Returns the response
   line, which the replay compares with the daemon's. *)
let handle_traced line =
  let req =
    match Trace.span "service.parse" (fun () -> Protocol.parse_line line) with
    | Ok req -> req
    | Error msg -> raise (Work.Check_failed ("request does not parse: " ^ msg))
  in
  let model_of (j : Protocol.job) ~jc ~h =
    Trace.span "model" (fun () ->
        Ops.resolve_model ~hamiltonian:j.Protocol.hamiltonian
          ~model_name:j.Protocol.model ~n:j.Protocol.n ~j:jc ~h)
  in
  let instance (j : Protocol.job) (model : Model.t) ~ramp =
    Work.traced_instance (fun () ->
        Ops.resolve_backend ~backend:j.Protocol.backend ~device:j.Protocol.device
          ~cutoff:j.Protocol.cutoff ~ramp ~model_name:model.Model.name
          ~n:model.Model.n)
  in
  let compile_verify ~options ~(inst : Backend.instance) ~target ~t_tar =
    let r = Work.compile_static ~options ~aais:inst.Backend.aais ~target ~t_tar () in
    (r, Trace.span "verify" (fun () -> inst.Backend.verify ~target ~t_tar r))
  in
  let payload =
    match req with
    | Protocol.Compile c ->
        let j = c.Protocol.job in
        let model = model_of j ~jc:j.Protocol.j ~h:j.Protocol.h in
        let inst = instance j model ~ramp:c.Protocol.ramp in
        let options =
          Ops.options_with ~domains:c.Protocol.domains
            ~best_effort:c.Protocol.best_effort ~deadline:c.Protocol.deadline
            ~no_plan_cache:c.Protocol.no_plan_cache
        in
        let r, report =
          compile_verify ~options ~inst ~target:(Ops.static_target model)
            ~t_tar:j.Protocol.t_tar
        in
        Trace.span "emit" (fun () ->
            let report = V.report_to_json report in
            if not c.Protocol.show_pulse then report
            else begin
              let pulse = inst.Backend.extract ~env:r.C.env ~t_sim:r.C.t_sim in
              let pulse = if c.Protocol.ramp then inst.Backend.ramp pulse else pulse in
              String.sub report 0 (String.length report - 1)
              ^ ",\"pulse\":" ^ Backend.pulse_json pulse ^ "}"
            end)
    | Protocol.Check j ->
        let model = model_of j ~jc:j.Protocol.j ~h:j.Protocol.h in
        let inst = instance j model ~ramp:false in
        Trace.span "analyze" (fun () ->
            Ops.check_report_json ~inst ~aais:inst.Backend.aais
              ~target:(Ops.static_target model) ~t_tar:j.Protocol.t_tar ())
    | Protocol.Lint j ->
        let model = model_of j ~jc:j.Protocol.j ~h:j.Protocol.h in
        let inst = instance j model ~ramp:false in
        let aais = inst.Backend.aais in
        let plan =
          Trace.span "plan.build" (fun () ->
              CP.build ~aais
                ~target_shape:(CP.support_of_target (Ops.static_target model)) ())
        in
        let diags =
          Trace.span "plan.lint" (fun () ->
              Qturbo_analysis.Kernel_check.check_aais aais @ CP.lint plan)
        in
        Trace.span "emit" (fun () ->
            let report = Qturbo_analysis.Diagnostic.list_to_json diags in
            Printf.sprintf "{\"model\":%s,\"backend\":%s,\"channels\":%d,\"rows\":%d,%s}"
              (q model.Model.name) (q j.Protocol.backend)
              (Array.length (Qturbo_aais.Aais.channels aais))
              (Qturbo_core.Term_index.count
                 (Qturbo_core.Linear_system.skeleton_index plan.CP.skeleton))
              (String.sub report 1 (String.length report - 2)))
    | Protocol.Sweep s ->
        let j = s.Protocol.sweep_job in
        let probe = model_of j ~jc:0.0 ~h:0.0 in
        let inst = instance j probe ~ramp:false in
        let options =
          Ops.options_with ~domains:s.Protocol.sweep_domains
            ~best_effort:s.Protocol.sweep_best_effort ~deadline:0.0
            ~no_plan_cache:s.Protocol.sweep_no_plan_cache
        in
        let batch_domains =
          if s.Protocol.batch_domains > 0 then s.Protocol.batch_domains
          else options.C.domains
        in
        let backend = j.Protocol.backend in
        let ts = Ops.parse_range ~what:"sweep_t" s.Protocol.sweep_t in
        if Model.is_driven probe then begin
          let td_jobs =
            List.concat_map
              (fun segments -> List.map (fun t -> (segments, t)) ts)
              (Ops.parse_int_list ~what:"sweep_segments" s.Protocol.sweep_segments)
          in
          Trace.span "td.compile" (fun () ->
              Ops.sweep_td_json ~options ~batch_domains ~backend ~inst ~probe
                ~td_jobs ())
        end
        else begin
          (* [compile_batch] gives each job exactly what [compile] gives it *)
          let grid =
            List.concat_map
              (fun jc ->
                List.concat_map
                  (fun h -> List.map (fun t -> (jc, h, t)) ts)
                  (Ops.parse_range ~what:"sweep_h" s.Protocol.sweep_h))
              (Ops.parse_range ~what:"sweep_j" s.Protocol.sweep_j)
          in
          let reports =
            List.map
              (fun (jc, h, t_tar) ->
                let target = Ops.static_target (model_of j ~jc ~h) in
                snd (compile_verify ~options ~inst ~target ~t_tar))
              grid
          in
          Trace.span "emit" (fun () ->
              let job_json (jc, h, t) report =
                Printf.sprintf {|{"j":%s,"h":%s,"t_tar":%s,"report":%s}|} (jf jc)
                  (jf h) (jf t) (V.report_to_json report)
              in
              Printf.sprintf {|{%s,"jobs":[%s],"plan_cache":%s}|}
                (Ops.sweep_header ~probe ~backend ~n:probe.Model.n ~mode:"static"
                   ~job_count:(List.length grid) ~batch_domains)
                (String.concat "," (List.map2 job_json grid reports))
                (Ops.plan_cache_json ()))
        end
    | _ -> raise (Work.Check_failed "request outside the mix")
  in
  {|{"ok":true,"result":|} ^ payload ^ "}"

(* ---- run directory and daemon -------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Wait up to [grace] seconds for [pid] to exit, then kill it; either
   way it is reaped before this returns. *)
let reap ?(grace = 10.0) pid =
  let deadline = now () +. grace in
  let rec wait () =
    if exited pid then ()
    else if now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
    end
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  ignore (Client.request ~socket_path:d.socket {|{"op":"shutdown"}|});
  reap d.pid;
  (try Unix.unlink d.socket with Unix.Unix_error _ -> ())

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap ~grace:5.0 d.pid;
      try Unix.unlink d.socket with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Start a daemon on [socket] over [store]; returns once a [ping] is
   answered. *)
let start ~qturbo ~socket ~store =
  let pid =
    Unix.create_process qturbo
      [| qturbo; "serve"; "--socket"; socket; "--plan-store"; store |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  live := d :: !live;
  let deadline = now () +. 60.0 in
  let rec ping () =
    match Client.request ~socket_path:socket {|{"op":"ping"}|} with
    | Ok resp when Client.response_ok resp -> ()
    | _ ->
        if exited pid then begin
          live := List.filter (fun x -> x.pid <> pid) !live;
          failwith "qturbo serve exited before answering ping"
        end;
        if now () > deadline then failwith "qturbo serve did not answer ping";
        Unix.sleepf 0.001;
        ping ()
  in
  ping ();
  d

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)

exception Interrupted

(* Run [f dir] with a fresh run directory under [root]; the directory,
   every daemon started meanwhile and their sockets are removed however
   [f] ends, a SIGINT/SIGTERM included. *)
let with_run_dir ~root f =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let handler = Sys.Signal_handle (fun _ -> raise Interrupted) in
  let old_int = Sys.signal Sys.sigint handler in
  let old_term = Sys.signal Sys.sigterm handler in
  Fun.protect
    ~finally:(fun () ->
      kill_all ();
      remove_tree dir;
      (try Unix.rmdir root with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
    (fun () -> f dir)
