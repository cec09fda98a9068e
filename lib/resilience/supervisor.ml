open Qturbo_util
open Qturbo_optim

exception Expired

type t = {
  deadline : float option; (* absolute, Clock.now-based *)
  faults : Fault.spec;
  best_effort : bool;
}

let none = { deadline = None; faults = []; best_effort = false }

let make ?deadline_seconds ?faults ?(best_effort = false) () =
  let deadline =
    match deadline_seconds with
    | None -> None
    | Some s -> Some (Clock.now () +. s)
  in
  let faults = match faults with Some f -> f | None -> Fault.of_env () in
  { deadline; faults; best_effort }

let best_effort t = t.best_effort
let faults t = t.faults
let deadline t = t.deadline

let wall_expired t =
  match t.deadline with None -> false | Some d -> Clock.now () >= d

let site_expired t ~site ~component =
  wall_expired t || Fault.fires t.faults ~site ~component = Some Fault.Deadline

let pool_guard t ~site () =
  if site_expired t ~site ~component:(-1) then raise Expired

(* Nelder–Mead is hopeless well before ~40 dimensions (a shrink step alone
   costs n evaluations); above that the ladder jumps straight from the
   jittered LM restart to multistart. *)
let nm_dim_limit = 40
let multistart_starts = 4

let stage_lm = "lm"
let stage_lm_retry = "lm-retry"
let stage_nm = "nelder-mead"
let stage_multistart = "multistart"

type outcome = {
  report : Objective.report;
  stage : string;
  failures : Failure.t list;
}

let recovered o = o.stage <> "" && o.failures <> []
let failed o = o.stage = ""

(* deterministic per-(site, component) stream for the jittered restart and
   the multistart samples: parallel compiles hash the same keys, so every
   domain count sees identical draws *)
let stream ~site ~component =
  let h = ref 0xcbf29ce4L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    site;
  let seed = Int64.add !h (Int64.of_int ((component + 7) * 0x9e3779b9)) in
  Rng.create ~seed

(* The retry jitter only needs to step off a pathological point (NaN
   residual, singular Jacobian at x0) — it must stay inside the basin the
   original init selected, or recovery lands on a different local minimum
   and "recovered" compiles silently lose accuracy.  Global exploration is
   the multistart stage's job. *)
let jitter ?bounds rng x0 =
  Array.mapi
    (fun i v ->
      let u = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
      let w = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
      let v' = (v *. (1.0 +. (0.01 *. u))) +. (0.001 *. w) in
      match bounds with
      | Some bs -> Bounds.clamp bs.(i) v'
      | None -> v')
    x0

let classify_report (r : Objective.report) =
  if Float.is_finite r.cost then None
  else
    Some
      (match r.stop with
      | Objective.Stop_deadline -> Failure.Deadline_expired
      | Objective.Stop_max_evaluations -> Failure.Budget_exhausted
      | Objective.Stop_invalid -> Failure.Numeric_invalid
      | Objective.Stop_converged | Objective.Stop_no_progress
      | Objective.Stop_max_iterations ->
          if Float.is_nan r.cost then Failure.Numeric_invalid
          else Failure.Non_convergence)

let classify_exn = function
  | Qturbo_linalg.Lu.Singular _ ->
      (Failure.Singular_jacobian, "singular normal equations")
  | Expired -> (Failure.Deadline_expired, "deadline expired")
  | e -> (Failure.Numeric_invalid, Printexc.to_string e)

(* the residual (and jacobian) a ladder stage actually sees, with this
   stage's injected fault applied.  A [Singular] fault raises from the
   residual, escapes the solver, and is classified by the ladder — the
   same path a genuinely singular factorization from a user-supplied
   Jacobian would take. *)
let faulted t ~stage ~component residual jacobian =
  match Fault.fires t.faults ~site:stage ~component with
  | Some Fault.Nan ->
      let residual x = Array.map (fun _ -> Float.nan) (residual x) in
      (residual, None)
  | Some Fault.Singular ->
      ((fun _ -> raise (Qturbo_linalg.Lu.Singular 0)), None)
  | _ -> (residual, jacobian)

let merge_deadline t (options : Levenberg_marquardt.options) =
  match (t.deadline, options.deadline) with
  | None, d -> { options with deadline = d }
  | (Some _ as d), None -> { options with deadline = d }
  | Some a, Some b -> { options with deadline = Some (Float.min a b) }

(* Stage runners return a report; injected [Singular] faults (and any
   exception out of a user residual/Jacobian) propagate to the ladder. *)

let run_lm_stage t ~stage ~component ~options ~jacobian residual x0 =
  if Fault.fires t.faults ~site:stage ~component = Some Fault.Deadline then
    Objective.failed_report ~x:x0 ~stop:Objective.Stop_deadline
  else begin
    let options = merge_deadline t options in
    let options =
      if Fault.fires t.faults ~site:stage ~component = Some Fault.Budget then
        { options with Levenberg_marquardt.max_evaluations = 0 }
      else options
    in
    let residual, jacobian = faulted t ~stage ~component residual jacobian in
    Levenberg_marquardt.minimize ~options ?jacobian residual x0
  end

let run_nm_stage t ~component ~options residual x0 =
  let stage = stage_nm in
  match Fault.fires t.faults ~site:stage ~component with
  | Some Fault.Deadline ->
      Objective.failed_report ~x:x0 ~stop:Objective.Stop_deadline
  | Some Fault.Budget ->
      Objective.failed_report ~x:x0 ~stop:Objective.Stop_max_evaluations
  | _ ->
      let residual, _ = faulted t ~stage ~component residual None in
      let nm_options =
        {
          Nelder_mead.default_options with
          deadline = (merge_deadline t options).Levenberg_marquardt.deadline;
        }
      in
      let f x = Objective.cost_of_residual (residual x) in
      Nelder_mead.minimize ~options:nm_options f x0

let run_multistart_stage t ~site ~component ~options ~jacobian ~bounds residual
    x0 =
  let stage = stage_multistart in
  if Fault.fires t.faults ~site:stage ~component = Some Fault.Deadline then
    Objective.failed_report ~x:x0 ~stop:Objective.Stop_deadline
  else begin
    let residual, jacobian = faulted t ~stage ~component residual jacobian in
    let options = merge_deadline t options in
    let budget_fault =
      Fault.fires t.faults ~site:stage ~component = Some Fault.Budget
    in
    let options =
      if budget_fault then
        { options with Levenberg_marquardt.max_evaluations = 0 }
      else options
    in
    let rng = stream ~site ~component in
    let sample =
      match bounds with
      | Some bs -> Multistart.sample_box bs ~fallback:10.0
      | None ->
          fun rng ->
            Array.map
              (fun v ->
                let span = 1.0 +. Float.abs v in
                Rng.uniform rng ~lo:(v -. span) ~hi:(v +. span))
              x0
    in
    let solve x0 =
      (Levenberg_marquardt.minimize ~options ?jacobian residual x0, ())
    in
    let accept (r : Objective.report) =
      r.Objective.converged && Float.is_finite r.Objective.cost
    in
    (* domains:1 — the ladder already runs inside a per-component pool
       task; nesting more parallelism buys nothing deterministic *)
    match
      Multistart.search ~domains:1 ~rng ~starts:multistart_starts ~sample
        ~solve ~accept ()
    with
    | Some run, _ -> run.Multistart.report
    | None, _ ->
        let stop =
          if budget_fault then Objective.Stop_max_evaluations
          else Objective.Stop_invalid
        in
        Objective.failed_report ~x:x0 ~stop
  end

let solve t ~site ~component ?(options = Levenberg_marquardt.default_options)
    ?jacobian ?bounds residual x0 =
  let fail ~stage class_ detail =
    Failure.make ~component ~site ~stage ~class_ ~fatal:false detail
  in
  if site_expired t ~site ~component then
    {
      report = Objective.failed_report ~x:x0 ~stop:Objective.Stop_deadline;
      stage = "";
      failures =
        [
          Failure.make ~component ~site ~stage:"" ~fatal:true
            ~class_:Failure.Deadline_expired "expired before solve started";
        ];
    }
  else begin
    let n = Array.length x0 in
    let stages =
      [
        ( stage_lm,
          fun () ->
            run_lm_stage t ~stage:stage_lm ~component ~options ~jacobian
              residual x0 );
        ( stage_lm_retry,
          fun () ->
            let rng = stream ~site ~component in
            let x0' = jitter ?bounds rng x0 in
            run_lm_stage t ~stage:stage_lm_retry ~component ~options ~jacobian
              residual x0' );
      ]
      @ (if n <= nm_dim_limit then
           [
             (stage_nm, fun () -> run_nm_stage t ~component ~options residual x0);
           ]
         else [])
      @ [
          ( stage_multistart,
            fun () ->
              run_multistart_stage t ~site ~component ~options ~jacobian
                ~bounds residual x0 );
        ]
    in
    let mark_last_fatal failures =
      let rec go = function
        | [] -> []
        | [ (last : Failure.t) ] -> [ { last with Failure.fatal = true } ]
        | f :: rest -> f :: go rest
      in
      go failures
    in
    let rec ladder acc best = function
      | [] ->
          (* every stage failed: surface the best (possibly infinite-cost)
             iterate with the final failure marked fatal *)
          let report =
            match best with
            | Some r -> r
            | None ->
                Objective.failed_report ~x:x0 ~stop:Objective.Stop_invalid
          in
          { report; stage = ""; failures = mark_last_fatal (List.rev acc) }
      | (name, run) :: rest ->
          if wall_expired t then
            ladder
              (fail ~stage:name Failure.Deadline_expired
                 "deadline expired before stage"
              :: acc)
              best []
          else begin
            match run () with
            | exception e ->
                let class_, detail = classify_exn e in
                ladder (fail ~stage:name class_ detail :: acc) best rest
            | report -> (
                match classify_report report with
                | None ->
                    (* finite cost: this stage's iterate is the answer.  A
                       deadline-stopped stage still counts — best effort —
                       but the expiry is recorded. *)
                    let acc =
                      if report.Objective.stop = Objective.Stop_deadline then
                        fail ~stage:name Failure.Deadline_expired
                          "stopped at deadline with a usable iterate"
                        :: acc
                      else acc
                    in
                    { report; stage = name; failures = List.rev acc }
                | Some class_ ->
                    let detail =
                      Printf.sprintf "stop=%s cost=%g"
                        (Objective.stop_name report.Objective.stop)
                        report.Objective.cost
                    in
                    let best =
                      match best with
                      | Some (b : Objective.report)
                        when Float.is_finite b.Objective.cost
                             || b.Objective.cost <= report.Objective.cost ->
                          Some b
                      | _ -> Some report
                    in
                    ladder (fail ~stage:name class_ detail :: acc) best rest)
          end
    in
    ladder [] None stages
  end
