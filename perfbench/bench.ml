(* The repository benchmark: one closed-loop client, three workloads.

     bench.exe --workload oneshot|warm-sweep|serve --seed N --seconds S
               --trace 0|1 --qturbo PATH [--tiny]
     bench.exe --negative

   [perfbench/run.py] builds this program and the [qturbo] binary from
   source and runs it with [QTURBO_DOMAINS] pinned; see
   perfbench/README.md for the workloads and the metrics.  The last line
   of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module CP = Qturbo_core.Compile_plan
module Json = Qturbo_util.Json
module Stats = Qturbo_util.Stats
module Server = Qturbo_service.Server
module Client = Qturbo_service.Client

let now = Unix.gettimeofday
let out_dir = "perfbench-out"

(* ---- pools --------------------------------------------------------------- *)

let shape ?cutoff backend model n = { Work.backend; model; n; cutoff }

let grid specs =
  List.concat_map
    (fun (backend, models, sizes) ->
      List.concat_map
        (fun m -> List.map (fun n -> shape backend m n) sizes)
        models)
    specs

(* Rydberg at n=300 runs with the smallest interaction cutoff at which
   the verifier agrees with the compiler (45 um for ising-cycle, 90 um
   for ising-cycle+): with the default [auto] (22.5 um) it disagrees,
   and [all-pairs] costs 1.5 s and 680 MB a compile.  Kitaev and
   mis-chain do not compile at n=300 on the 1-D device, and iontrap
   qaoa-chain stops at n=23 (n=93 costs 1.7 s). *)
let oneshot_pool ~tiny =
  if tiny then
    grid
      [ ("rydberg", [ "ising-cycle"; "mis-chain" ], [ 5 ]);
        ("heisenberg", [ "heis-chain" ], [ 6 ]);
        ("iontrap", [ "ising-chain" ], [ 5 ]) ]
  else
    grid
      [ ("rydberg", [ "ising-chain"; "ising-cycle"; "kitaev"; "ising-cycle+"; "mis-chain" ], [ 23; 93 ]);
        ("heisenberg", [ "ising-chain"; "heis-chain"; "kitaev"; "qaoa-chain" ], [ 23; 93; 300 ]);
        ("iontrap", [ "ising-chain" ], [ 23; 40 ]);
        ("iontrap", [ "qaoa-chain" ], [ 23 ]) ]
    @ [ shape ~cutoff:"45" "rydberg" "ising-cycle" 300;
        shape ~cutoff:"90" "rydberg" "ising-cycle+" 300 ]

let warm_shapes ~tiny =
  if tiny then
    grid
      [ ("rydberg", [ "ising-cycle"; "mis-chain" ], [ 5 ]);
        ("iontrap", [ "qaoa-chain" ], [ 5 ]) ]
  else
    [ shape "rydberg" "ising-cycle" 93;
      shape ~cutoff:"45" "rydberg" "ising-cycle" 300;
      shape "rydberg" "kitaev" 93;
      shape "rydberg" "mis-chain" 23;
      shape "heisenberg" "heis-chain" 300;
      shape "iontrap" "ising-chain" 40;
      shape "iontrap" "qaoa-chain" 23 ]

let serve_templates ~tiny =
  let t kind shape = { Serve.kind; shape } in
  let compile ?(show_pulse = false) ?(ramp = false) s =
    t (Serve.Compile { show_pulse; ramp }) s
  in
  if tiny then
    [ compile ~show_pulse:true ~ramp:true (shape "rydberg" "ising-cycle" 5);
      compile ~show_pulse:true (shape "iontrap" "ising-chain" 5);
      t Serve.Check (shape "heisenberg" "heis-chain" 5);
      t Serve.Lint (shape "rydberg" "kitaev" 5);
      t Serve.Static_sweep (shape "heisenberg" "ising-chain" 5);
      t (Serve.Td_sweep "2,4") (shape "rydberg" "mis-chain" 5) ]
  else
    [ compile ~show_pulse:true (shape "rydberg" "ising-cycle" 93);
      compile (shape "rydberg" "ising-cycle" 93);
      compile ~show_pulse:true ~ramp:true (shape "rydberg" "kitaev" 23);
      compile (shape "rydberg" "kitaev" 23);
      compile (shape "rydberg" "ising-cycle+" 23);
      compile (shape "rydberg" "ising-chain" 93);
      compile ~show_pulse:true (shape "heisenberg" "heis-chain" 300);
      compile (shape "heisenberg" "heis-chain" 300);
      compile (shape "heisenberg" "ising-chain" 93);
      compile ~show_pulse:true (shape "heisenberg" "kitaev" 23);
      compile ~show_pulse:true (shape "iontrap" "ising-chain" 40);
      compile (shape "iontrap" "ising-chain" 40);
      compile (shape "iontrap" "ising-chain" 23);
      t Serve.Check (shape "rydberg" "ising-cycle" 93);
      t Serve.Check (shape "heisenberg" "heis-chain" 300);
      t Serve.Lint (shape "rydberg" "kitaev" 23);
      t Serve.Lint (shape "iontrap" "ising-chain" 40);
      t Serve.Static_sweep (shape "heisenberg" "ising-chain" 93);
      t Serve.Static_sweep (shape "rydberg" "ising-cycle" 23);
      t (Serve.Td_sweep "2,4") (shape "rydberg" "mis-chain" 23);
      t (Serve.Td_sweep "4") (shape "iontrap" "qaoa-chain" 23) ]

(* About 4000 operations: several times what the slowest workload
   completes in the longest admissible run. *)
let rounds_for pool = max 40 (4000 / List.length pool)

(* ---- the closed loop ------------------------------------------------------- *)

type sample = { lat : float; figures : (float list * float list, string) result }

(* Time spent in output checks that are not part of an operation; the
   loop takes it out of the operation's latency and the run's wall. *)
let excluded = ref 0.0

let exclude f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> excluded := !excluded +. (now () -. t0)) f

let failures_shown = ref 0

let attempt f =
  match f () with
  | v -> Ok v
  | exception (Serve.Interrupted as e) -> raise e
  | exception Work.Check_failed why -> Error why
  | exception e -> Error (Printexc.to_string e)

(* Run [op] on [jobs.(first)], [jobs.(first+1)], ... one at a time until
   [seconds] have passed and at least [min_ops] ran.  Returns the samples
   and the wall time minus excluded check time. *)
let closed_loop ?(first = 0) ?(limit = max_int) ~seconds ~min_ops jobs op =
  let t_start = now () in
  let ex_start = !excluded in
  let n = min (Array.length jobs) limit in
  let rec go i acc =
    let count = i - first in
    if i >= n || (count >= min_ops && now () -. t_start >= seconds) then acc
    else begin
      let ex0 = !excluded in
      let t0 = now () in
      let figures = attempt (fun () -> op i jobs.(i)) in
      let lat = now () -. t0 -. (!excluded -. ex0) in
      (match figures with
      | Error why when !failures_shown < 5 ->
          incr failures_shown;
          Printf.eprintf "perfbench: operation %d failed: %s\n%!" i why
      | _ -> ());
      go (i + 1) ({ lat; figures } :: acc)
    end
  in
  let samples = Array.of_list (List.rev (go first [])) in
  (samples, now () -. t_start -. (!excluded -. ex_start))

let failed samples =
  Array.fold_left
    (fun acc s -> match s.figures with Error _ -> acc + 1 | Ok _ -> acc)
    0 samples

let of_outcome (o : Work.outcome) = ([ o.Work.t_sim ], [ o.Work.rel_err ])

(* ---- end-to-end metrics ------------------------------------------------------ *)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let self_rss_mb () = Serve.peak_rss_mb (Unix.getpid ())

(* The first [figure_rounds] rounds of a run cover every pool entry
   that many times, with the seed's coefficients: the pulse-length and
   error means over them are a deterministic function of the seed. *)
let figure_rounds = 3

(* Enough operations for the figures and for ten samples beyond p90. *)
let min_ops ~round = max (figure_rounds * round) 100

let end_to_end ~setup_s ~samples ~wall ~round ~rss =
  let n = Array.length samples in
  let lats = Array.map (fun s -> 1000.0 *. s.lat) samples in
  let first = Array.to_list (Array.sub samples 0 (min (figure_rounds * round) n)) in
  let t_sims, errs =
    List.fold_left
      (fun (ts, es) s ->
        match s.figures with
        | Ok (t, e) -> (ts @ t, es @ e)
        | Error _ -> (ts, es))
      ([], []) first
  in
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", float_of_int n /. wall, "1/s");
    ("latency_ms.p50", Stats.percentile lats ~p:50.0, "ms");
    ("latency_ms.p90", Stats.percentile lats ~p:90.0, "ms");
    ("success_ratio", float_of_int (n - failed samples) /. float_of_int n, "ratio");
    ("peak_rss_mb", rss, "MB");
    ("t_sim_us.mean", mean t_sims, "us");
    ("rel_err_pct.mean", mean errs, "%") ]

(* Set-up runs [reps] times, each from a collected heap so that one
   repetition's garbage is not collected on the next one's clock; the
   median is reported and the last repetition's product is kept. *)
let timed_setup ~reps f =
  let rec go k times last =
    if k = 0 then (Stats.median (Array.of_list times), Option.get last)
    else begin
      Gc.full_major ();
      let t0 = now () in
      let v = f () in
      go (k - 1) ((now () -. t0) :: times) (Some v)
    end
  in
  go reps [] None

(* ---- per-layer metrics --------------------------------------------------------- *)

let median_or_zero = function
  | [] -> 0.0
  | xs -> Stats.median (Array.of_list xs)

(* Per layer, its total time in each operation where it ran. *)
let layer_times ops =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (o : Trace.op) ->
      let sums = Hashtbl.create 16 in
      List.iter
        (fun (s : Trace.span) ->
          List.iter
            (fun (c : Trace.span) ->
              let prev = Option.value (Hashtbl.find_opt sums c.layer) ~default:0.0 in
              Hashtbl.replace sums c.layer (prev +. (1000.0 *. Trace.dur c)))
            (s :: Trace.children o s))
        o.spans;
      Hashtbl.iter
        (fun layer ms ->
          Hashtbl.replace tbl layer
            (ms :: Option.value (Hashtbl.find_opt tbl layer) ~default:[]))
        sums)
    ops;
  fun layer -> median_or_zero (Option.value (Hashtbl.find_opt tbl layer) ~default:[])

let values ops name =
  List.concat_map
    (fun (o : Trace.op) ->
      List.filter_map (fun (n, v) -> if n = name then Some v else None) o.values)
    ops

let count_marks ops name =
  List.fold_left
    (fun acc (o : Trace.op) ->
      acc + List.length (List.filter (fun (n, _) -> n = name) o.marks))
    0 ops

let find_span (o : Trace.op) layer =
  List.find_opt (fun (s : Trace.span) -> s.layer = layer) o.spans

(* Front-end time the pipeline reports as [build_seconds] against the
   time from the [plan-build] mark to [obtain]'s return. *)
let unattributed ops =
  median_or_zero
    (List.filter_map
       (fun (o : Trace.op) ->
         match (find_span o "plan.obtain", List.assoc_opt "plan.build_reported_ms" o.values) with
         | Some s, Some reported -> (
             match
               List.find_opt
                 (fun (c : Trace.span) -> c.layer = "plan.build")
                 (Trace.children o s)
             with
             | Some b -> Some ((1000.0 *. Trace.dur b) -. reported)
             | None -> None)
         | _ -> None)
       ops)

(* Obtain time of the lookups the plan store answered. *)
let store_load ops =
  median_or_zero
    (List.concat_map
       (fun (o : Trace.op) ->
         List.filter_map
           (fun (s : Trace.span) ->
             match Trace.first_plan_mark (Trace.marks_within o s) with
             | Some ("plan-store-hit", _) when s.layer = "plan.obtain" ->
                 Some (1000.0 *. Trace.dur s)
             | _ -> None)
           o.spans)
       ops)

(* The recorded layers and their time metrics.  A parent's children
   ([plan.obtain] -> lookup / build, [solve] -> precheck / linear /
   local) lie inside it, so the parent's duration is all attributed. *)
let layer_metrics =
  [ ("model.build_ms", "model");
    ("backend.instantiate_ms", "backend.instantiate");
    ("shape.key_ms", "shape.key");
    ("plan.obtain_ms", "plan.obtain");
    ("plan.lookup_ms", "plan.lookup");
    ("plan.build_ms", "plan.build");
    ("plan.lint_ms", "plan.lint");
    ("solve.ms", "solve");
    ("solve.precheck_ms", "solve.precheck");
    ("solve.linear_ms", "solve.linear");
    ("solve.local_ms", "solve.local");
    ("analyze.ms", "analyze");
    ("td.compile_ms", "td.compile");
    ("verify.ms", "verify");
    ("emit.ms", "emit");
    ("service.parse_ms", "service.parse") ]

(* The operation's wall time inside top-level spans of the layers above.
   Top-level spans do not overlap. *)
let covered (o : Trace.op) =
  List.fold_left
    (fun acc (s : Trace.span) ->
      if List.exists (fun (_, l) -> l = s.layer) layer_metrics then acc +. Trace.dur s
      else acc)
    0.0 o.spans

let service_metrics =
  [ "service.handle_ms"; "service.transport_ms"; "service.compile_ms";
    "service.check_ms"; "service.lint_ms"; "service.sweep_ms" ]

(* [service] gives the service figures measured outside the recorder
   (serve only; the others read 0). *)
let per_layer ~ops ~overhead ~gc ~service =
  let time = layer_times ops in
  let built = count_marks ops "plan-build" in
  let cached = count_marks ops "plan-cache-hit" in
  let stored = count_marks ops "plan-store-hit" in
  let obtained = built + cached + stored in
  let store = CP.store_stats () in
  let store_count f =
    float_of_int (match store with Some s -> f s | None -> 0)
  in
  let wall = List.fold_left (fun acc (o : Trace.op) -> acc +. (o.stop -. o.start)) 0.0 ops in
  let covered = List.fold_left (fun acc o -> acc +. covered o) 0.0 ops in
  let n_ops = float_of_int (max 1 (List.length ops)) in
  let alloc_mb, majors = gc in
  let sum name = List.fold_left ( +. ) 0.0 (values ops name) in
  let med name = median_or_zero (values ops name) in
  List.map (fun (name, layer) -> (name, time layer, "ms")) layer_metrics
  @ List.map
      (fun name -> (name, Option.value (List.assoc_opt name service) ~default:0.0, "ms"))
      service_metrics
  @ [ ("aais.channels", med "aais.channels", "count");
      ("shape.key_kb", med "shape.key_kb", "KB");
      ("plan.build_reported_ms", med "plan.build_reported_ms", "ms");
      ("plan.unattributed_ms", unattributed ops, "ms");
      ("plan.built", float_of_int built, "count");
      ("plan.cached", float_of_int cached, "count");
      ("plan.stored", float_of_int stored, "count");
      ("plan.hit_ratio",
        (if obtained = 0 then 0.0 else float_of_int (cached + stored) /. float_of_int obtained),
        "ratio");
      ("store.load_ms", store_load ops, "ms");
      ("store.hits", store_count (fun s -> s.Qturbo_store.Plan_store.hits), "count");
      ("store.misses", store_count (fun s -> s.Qturbo_store.Plan_store.misses), "count");
      ("store.writes", store_count (fun s -> s.Qturbo_store.Plan_store.writes), "count");
      ("store.corrupt", store_count (fun s -> s.Qturbo_store.Plan_store.corrupt), "count");
      ("solve.constraint_iters", med "solve.constraint_iters", "count");
      ("solve.components", med "solve.components", "count");
      ("solve.failures", sum "solve.failures", "count");
      ("td.plan_builds", sum "td.plan_builds", "count");
      ("emit.kb", med "emit.kb", "KB");
      ("service.response_kb", med "service.response_kb", "KB");
      ("gc.alloc_mb_per_op", alloc_mb /. n_ops, "MB/op");
      ("gc.major_per_op", majors /. n_ops, "1/op");
      ("trace.coverage", (if wall > 0.0 then covered /. wall else 0.0), "ratio");
      ("trace.overhead", overhead, "ratio") ]

(* Allocation (MB) and major collections while [f] runs. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let v = f () in
  let g1 = Gc.quick_stat () in
  let words g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  ( v,
    ( (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1e6,
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) ) )

let traced f =
  Trace.reset ();
  Trace.install ();
  Fun.protect ~finally:Trace.uninstall (fun () -> with_gc f)

(* ---- workloads ------------------------------------------------------------------ *)

type run = {
  samples : sample array;
  metrics : (string * float * string) list;
  digest : string;
  jobs : int;
}

let ops_per_s (samples, wall) = float_of_int (Array.length samples) /. wall

(* oneshot and warm-sweep share one shape: generate, set up, loop. *)
let compile_workload ~seed ~seconds ~trace ~pool ~setup ~op ~setup_reps =
  let round = List.length pool in
  let min_ops = min_ops ~round in
  let setup_s, (jobs, state) =
    timed_setup ~reps:setup_reps (fun () ->
        let jobs = Array.of_list (Work.jobs ~seed ~count:(rounds_for pool) pool) in
        let digest = Work.digest (Array.to_list (Array.map Work.render_job jobs)) in
        ((jobs, digest), setup ()))
  in
  let jobs, digest = jobs in
  let run op_seconds = closed_loop ~seconds:op_seconds ~min_ops jobs (fun _ jb -> of_outcome (op state jb)) in
  if not trace then begin
    let samples, wall = run seconds in
    { samples;
      metrics = end_to_end ~setup_s ~samples ~wall ~round ~rss:(self_rss_mb ());
      digest; jobs = Array.length jobs }
  end
  else begin
    let untraced = run (seconds /. 2.0) in
    let traced_run, gc = traced (fun () -> run (seconds /. 2.0)) in
    let ops = Trace.recorded () in
    { samples = Array.append (fst untraced) (fst traced_run);
      metrics =
        per_layer ~ops ~overhead:(ops_per_s traced_run /. ops_per_s untraced) ~gc
          ~service:[];
      digest; jobs = Array.length jobs }
  end

let oneshot ~seed ~seconds ~trace ~tiny =
  compile_workload ~seed ~seconds ~trace ~pool:(oneshot_pool ~tiny)
    ~setup_reps:5 ~setup:(fun () -> ()) ~op:(fun () jb -> Work.oneshot_op jb)

let warm_sweep ~seed ~seconds ~trace ~tiny =
  let shapes = warm_shapes ~tiny in
  compile_workload ~seed ~seconds ~trace ~pool:shapes ~setup_reps:3
    ~setup:(fun () -> Work.warm_setup shapes)
    ~op:Work.warm_op

(* Stripped payloads of the daemon responses compared in-process, by
   request index; the traced replay is compared with them too. *)
let daemon_payloads : (int, string) Hashtbl.t = Hashtbl.create 64

(* One socket request, closed loop.  The strict parse, the output checks
   and (for every fourth request) the comparison with the in-process
   payload run outside the timed window. *)
let socket_op ~socket i (r : Serve.request) =
  let resp =
    match Client.request ~socket_path:socket r.Serve.line with
    | Ok resp -> resp
    | Error msg -> raise (Work.Check_failed msg)
  in
  exclude (fun () ->
      let v = Serve.parse_ok resp in
      let figures = Serve.figures r.Serve.template v in
      if i mod 4 = 0 then begin
        if not (Serve.same_as_in_process r.Serve.line v) then
          raise (Work.Check_failed "daemon payload differs from the in-process payload");
        Hashtbl.replace daemon_payloads i (Serve.stripped v)
      end;
      figures)

(* The untraced replay of one request line through [Server.handle_request]. *)
let handle_op ~started i (r : Serve.request) =
  let resp, _ = Server.handle_request ~requests:(i + 1) ~started r.Serve.line in
  exclude (fun () -> Serve.figures r.Serve.template (Serve.parse_ok resp))

(* The traced replay of one request line through {!Serve.handle_traced}. *)
let traced_op i (r : Serve.request) =
  let resp =
    Trace.op ~label:(Serve.kind_name r.Serve.template.Serve.kind) (fun () ->
        let resp = Serve.handle_traced r.Serve.line in
        Trace.value "service.response_kb" (float_of_int (String.length resp) /. 1024.0);
        resp)
  in
  exclude (fun () ->
      let v = Serve.parse_ok resp in
      (match Hashtbl.find_opt daemon_payloads i with
      | Some p when p <> Serve.stripped v ->
          raise (Work.Check_failed "traced replay payload differs from the daemon's")
      | _ -> ());
      Serve.figures r.Serve.template v)

(* The service figures of the traced run: [handle] holds the in-process
   [Server.handle_request] samples and [socket] the daemon's, request by
   request. *)
let service_figures ~reqs ~socket ~handle =
  let ms (s : sample) = 1000.0 *. s.lat in
  let of_kind name =
    median_or_zero
      (List.filteri
         (fun i _ -> Serve.kind_name reqs.(i).Serve.template.Serve.kind = name)
         (Array.to_list (Array.map ms handle)))
  in
  [ ("service.handle_ms", median_or_zero (Array.to_list (Array.map ms handle)));
    ("service.transport_ms",
      median_or_zero (Array.to_list (Array.mapi (fun i s -> ms socket.(i) -. ms s) handle)));
    ("service.compile_ms", of_kind "compile");
    ("service.check_ms", of_kind "check");
    ("service.lint_ms", of_kind "lint");
    ("service.sweep_ms", of_kind "sweep") ]

let serve ~seed ~seconds ~trace ~tiny ~qturbo =
  let templates = serve_templates ~tiny in
  let round = List.length templates in
  let min_ops = min_ops ~round in
  Serve.with_run_dir ~root:out_dir (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let store = Filename.concat dir "store" in
      (* each set-up repetition but the last stops its daemon untimed *)
      let setup_once () =
        let t0 = now () in
        let reqs = Array.of_list (Serve.requests ~seed ~count:(rounds_for templates) templates) in
        let d = Serve.start ~qturbo ~socket ~store in
        (now () -. t0, (reqs, d))
      in
      let rec setups k times =
        let t, (reqs, d) = setup_once () in
        if k <= 1 then (Stats.median (Array.of_list (t :: times)), (reqs, d))
        else begin
          Serve.stop d;
          setups (k - 1) (t :: times)
        end
      in
      let setup_s, (reqs, d) = setups (if trace then 1 else 5) [] in
      let digest = Work.digest (Array.to_list (Array.map (fun r -> r.Serve.line) reqs)) in
      (* phase 1 on an empty store; then a restart on the same store.  The
         restart is set-up work: the wall is the two phases' loops. *)
      let phase_seconds = if trace then seconds /. 6.0 else seconds /. 2.0 in
      let s1, wall1 = closed_loop ~seconds:phase_seconds ~min_ops:round reqs (socket_op ~socket) in
      let rss1 = Serve.peak_rss_mb d.Serve.pid in
      Serve.stop d;
      let d = Serve.start ~qturbo ~socket ~store in
      let restart = Array.length s1 in
      let s2, wall2 =
        closed_loop ~first:restart ~seconds:phase_seconds ~min_ops:(max 1 (min_ops - restart))
          reqs (socket_op ~socket)
      in
      let rss = Float.max rss1 (Serve.peak_rss_mb d.Serve.pid) in
      Serve.stop d;
      let socket_samples = Array.append s1 s2 in
      if not trace then
        { samples = socket_samples;
          metrics = end_to_end ~setup_s ~samples:socket_samples ~wall:(wall1 +. wall2) ~round ~rss;
          digest; jobs = Array.length reqs }
      else begin
        (* the same lines in-process, each replay on a fresh store, with
           [clear_caches] standing in for the restart *)
        let n = Array.length socket_samples in
        let replay name op =
          CP.enable_store ~dir:(Filename.concat dir name);
          CP.clear_caches ();
          let r1, w1 = closed_loop ~seconds:infinity ~min_ops:0 ~limit:restart reqs op in
          CP.clear_caches ();
          let r2, w2 = closed_loop ~first:restart ~seconds:infinity ~min_ops:0 ~limit:n reqs op in
          (Array.append r1 r2, w1 +. w2)
        in
        let handled = replay "replay-handle" (handle_op ~started:(now ())) in
        let replayed, gc = traced (fun () -> replay "replay-traced" traced_op) in
        let metrics =
          per_layer ~ops:(Trace.recorded ())
            ~overhead:(ops_per_s replayed /. ops_per_s handled) ~gc
            ~service:(service_figures ~reqs ~socket:socket_samples ~handle:(fst handled))
        in
        CP.disable_store ();
        { samples = Array.concat [ socket_samples; fst handled; fst replayed ];
          metrics; digest; jobs = Array.length reqs }
      end)

(* The negative case through the serve checks: the in-process response
   to its compile request, run as one closed-loop operation, must count
   as a failed operation. *)
let negative_serve () =
  match
    closed_loop ~seconds:0.0 ~min_ops:1 [| Serve.negative_request |]
      (handle_op ~started:(now ()))
  with
  | [| { figures = Error why; _ } |], _ -> Some why
  | _ -> None

(* ---- output ------------------------------------------------------------------------ *)

let file_digest path =
  try Digest.to_hex (Digest.file path) with Sys_error _ -> "unavailable"

let context ~workload ~seed ~trace ~qturbo (r : run) =
  let env name = Option.value (Sys.getenv_opt name) ~default:"unset" in
  let q = Json.quote in
  Printf.sprintf
    {|{"workload":%s,"seed":%d,"trace":%b,"job_digest":%s,"jobs_generated":%d,"nproc":%d,"qturbo_domains":%s,"ocaml":%s,"git_rev":%s,"source_digest":%s,"bench_digest":%s,"qturbo_digest":%s}|}
    (q workload) seed trace (q r.digest) r.jobs
    (Domain.recommended_domain_count ())
    (q (env "QTURBO_DOMAINS")) (q Sys.ocaml_version) (q (env "PERFBENCH_GIT_REV"))
    (q (env "PERFBENCH_SOURCE_DIGEST"))
    (q (file_digest Sys.executable_name))
    (q (file_digest qturbo))

let result_line (r : run) =
  let bad = failed r.samples in
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (bad = 0) (Array.length r.samples) bad
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|%s:{"value":%s,"unit":%s}|} (Json.quote name)
              (Json.float_lit v) (Json.quote unit))
          r.metrics))

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and qturbo = ref "" and tiny = ref false and negative = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "oneshot | warm-sweep | serve");
      ("--seed", Arg.Set_int seed, "N  job-generation seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--qturbo", Arg.Set_string qturbo, "PATH  qturbo binary (serve)");
      ("--tiny", Arg.Set tiny, " tiny sizes (self-test)");
      ("--negative", Arg.Set negative, " run the negative output check") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --qturbo PATH";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !negative then begin
    let field name = function
      | Some why -> Printf.sprintf {|"%s":true,"%s_why":%s|} name name (Json.quote why)
      | None -> Printf.sprintf {|"%s":false|} name
    in
    let oneshot = Work.negative_flagged () and serve = negative_serve () in
    Printf.printf "{%s,%s}\n" (field "flagged" oneshot) (field "serve_flagged" serve);
    exit (if oneshot <> None && serve <> None then 0 else 1)
  end;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 and tiny = !tiny in
  let r =
    match !workload with
    | "oneshot" -> oneshot ~seed ~seconds ~trace ~tiny
    | "warm-sweep" -> warm_sweep ~seed ~seconds ~trace ~tiny
    | "serve" ->
        if !qturbo = "" then failwith "serve needs --qturbo PATH";
        serve ~seed ~seconds ~trace ~tiny ~qturbo:!qturbo
    | w -> failwith ("unknown workload: " ^ w)
  in
  let ctx = context ~workload:!workload ~seed ~trace ~qturbo:!qturbo r in
  if trace then begin
    (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Trace.write
      ~path:(Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload seed))
      ~context:ctx
  end;
  Printf.printf "{\"context\":%s}\n" ctx;
  print_endline (result_line r)

let () = main ()
