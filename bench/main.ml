(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§7), plus the design-choice ablations called out in
   DESIGN.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table1 fig3  -- run a subset
     dune exec bench/main.exe -- quick        -- reduced sizes/budgets

   Conventions: times are wall-clock seconds for compilation and µs for
   pulses;
   "-" marks a missing data point (the baseline failed inside its budget,
   exactly how SimuQ's missing points arise in the paper). *)

open Qturbo_aais
open Qturbo_util

let quick = ref false

(* ------------------------------------------------------------------ *)
(* shared plumbing                                                     *)

let relaxed_line =
  (* the scaling studies follow the paper in ignoring the 75 µm window
     (93 atoms at ~9 µm spacing span ~850 µm); amplitude limits and the
     minimum separation stay enforced.  The window must stay moderate:
     position boxes feed the baseline's bounded transform, and a huge box
     destroys its finite-difference conditioning. *)
  { Device.aquila_paper with Device.max_extent = 2000.0 }

let relaxed_plane = Device.with_geometry Device.Plane relaxed_line

let needs_plane name =
  match name with "ising-cycle" | "ising-cycle+" -> true | _ -> false

let rydberg_for name n =
  let spec = if needs_plane name then relaxed_plane else relaxed_line in
  Rydberg.build ~spec ~n

(* large-N scaling devices: an ising-cycle spans ~3n um at the default
   spacing, so the window must keep growing past n ≈ 600; the builder's
   auto cutoff truncates the van-der-Waals pair channels above 96 atoms *)
let large_cycle_ryd n =
  let spec =
    {
      relaxed_plane with
      Device.max_extent = Float.max 2000.0 (3.5 *. float_of_int n);
    }
  in
  Rydberg.build ~spec ~n

let static_target name n =
  Qturbo_pauli.Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at
       (Qturbo_models.Benchmarks.by_name ~name ~n)
       ~s:0.0)

(* the trap family benches on the open chain: the cycle's wrap-around
   bond exceeds the distance-falloff coupling bound at large n *)
let iontrap_for n = Iontrap.build ~spec:Device.iontrap_chain ~n

type point = {
  compile_s : float;
  exec_us : float;
  rel_err : float; (* percent *)
}

let nan_point = { compile_s = Float.nan; exec_us = Float.nan; rel_err = Float.nan }

let time_run f =
  (* wall clock: CPU time would sum the pool domains' work and report a
     parallel run as slower than it is *)
  let t0 = Clock.now () in
  let r = f () in
  (Clock.now () -. t0, r)

let qturbo_point ?options ~aais ~target ~t_tar () =
  let compile_s, r =
    time_run (fun () ->
        Qturbo_core.Compiler.compile ?options ~aais ~target ~t_tar ())
  in
  {
    compile_s;
    exec_us = r.Qturbo_core.Compiler.t_sim;
    rel_err = r.Qturbo_core.Compiler.relative_error;
  }

let simuq_seed name n = Int64.of_int ((Hashtbl.hash (name, n) land 0xFFFF) + 7)

let simuq_point ?(budget = 20.0) ~name ~aais ~target ~t_tar ~n () =
  let options =
    {
      Qturbo_simuq.Simuq_compiler.default_options with
      Qturbo_simuq.Simuq_compiler.time_budget_seconds = budget;
      seed = simuq_seed name n;
    }
  in
  let compile_s, r =
    time_run (fun () ->
        Qturbo_simuq.Simuq_compiler.compile ~options ~aais ~target ~t_tar ())
  in
  if r.Qturbo_simuq.Simuq_compiler.success then
    {
      compile_s;
      exec_us = r.Qturbo_simuq.Simuq_compiler.t_sim;
      rel_err = r.Qturbo_simuq.Simuq_compiler.relative_error;
    }
  else { nan_point with compile_s }

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

let summarize_pairs pairs =
  (* (qturbo, simuq) points with a successful baseline *)
  let ok =
    List.filter (fun (_, s) -> Float.is_finite s.rel_err) pairs
  in
  if ok = [] then
    print_endline "summary: baseline never succeeded at these sizes"
  else begin
    let speedups =
      Array.of_list
        (List.map (fun (q, s) -> Float.max 1e-9 (s.compile_s /. Float.max 1e-9 q.compile_s)) ok)
    in
    let exec_red =
      Array.of_list
        (List.map (fun (q, s) -> 100.0 *. (1.0 -. (q.exec_us /. s.exec_us))) ok)
    in
    let err_red =
      Array.of_list
        (List.map
           (fun (q, s) ->
             if s.rel_err <= 1e-12 then 0.0
             else 100.0 *. (1.0 -. (q.rel_err /. s.rel_err)))
           ok)
    in
    Printf.printf
      "summary: compile speedup x%.0f (geomean, max x%.0f), execution time \
       -%.0f%%, compilation error -%.0f%% (over %d baseline successes)\n"
      (Stats.geometric_mean speedups)
      (snd (Stats.min_max speedups))
      (Stats.mean exec_red) (Stats.mean err_red) (List.length ok)
  end

(* ------------------------------------------------------------------ *)
(* Table 1: baseline compilation time on the Ising cycle               *)

let table1 () =
  let sizes = if !quick then [ 10; 20; 30 ] else [ 20; 40; 60; 80; 100 ] in
  let budget = if !quick then 15.0 else 90.0 in
  let t = Table_fmt.create ~header:[ "Qubit#"; "SimuQ compile (s)"; "QTurbo compile (s)" ] in
  List.iter
    (fun n ->
      progress "table1: n = %d" n;
      let ryd = rydberg_for "ising-cycle" n in
      let target = static_target "ising-cycle" n in
      let q = qturbo_point ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
      let s =
        simuq_point ~budget ~name:"table1" ~aais:ryd.Rydberg.aais ~target
          ~t_tar:1.0 ~n ()
      in
      let simuq_cell =
        if Float.is_finite s.rel_err then Table_fmt.cell_of_float s.compile_s
        else Printf.sprintf ">%.0f (failed)" s.compile_s
      in
      Table_fmt.add_row t
        [ string_of_int n; simuq_cell; Table_fmt.cell_of_float q.compile_s ])
    sizes;
  Table_fmt.print ~title:"Table 1: compilation time for the Ising cycle" t

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: the four-benchmark sweeps                          *)

let sweep_sizes () = if !quick then [ 3; 13; 23 ] else [ 3; 13; 23; 43; 63; 93 ]

let min_size = function
  | "ising-cycle+" -> 5
  | "ising-cycle" -> 3
  | _ -> 2

(* log-log scaling exponent of compile time vs n, per compiler *)
let scaling_exponents points =
  (* points: (n, qturbo_s, simuq_s option) with n >= some floor *)
  let fit series =
    let usable = List.filter (fun (n, t) -> n >= 13 && t > 0.0) series in
    if List.length usable < 3 then Float.nan
    else
      let xs = Array.of_list (List.map (fun (n, _) -> log (float_of_int n)) usable) in
      let ys = Array.of_list (List.map (fun (_, t) -> log t) usable) in
      fst (Stats.linear_fit xs ys)
  in
  let q = fit (List.map (fun (n, qs, _) -> (n, qs)) points) in
  let s =
    fit
      (List.filter_map
         (fun (n, _, ss) -> match ss with Some t -> Some (n, t) | None -> None)
         points)
  in
  (q, s)

let sweep ~title ~benchmarks ~make_aais ~budget =
  let all_points = ref [] in
  let all_pairs = ref [] in
  List.iter
    (fun name ->
      let t =
        Table_fmt.create
          ~header:
            [
              "n"; "QT comp(s)"; "SQ comp(s)"; "speedup"; "QT T(us)"; "SQ T(us)";
              "QT err%"; "SQ err%";
            ]
      in
      List.iter
        (fun n ->
          progress "%s / %s: n = %d" title name n;
          let n = Int.max n (min_size name) in
          let aais, target = make_aais name n in
          let q = qturbo_point ~aais ~target ~t_tar:1.0 () in
          let s = simuq_point ~budget ~name ~aais ~target ~t_tar:1.0 ~n () in
          all_pairs := (q, s) :: !all_pairs;
          all_points :=
            ( n,
              q.compile_s,
              if Float.is_finite s.rel_err then Some s.compile_s else None )
            :: !all_points;
          Table_fmt.add_row t
            ([ string_of_int n ]
            @ List.map Table_fmt.cell_of_float
                [
                  q.compile_s;
                  (if Float.is_finite s.rel_err then s.compile_s else Float.nan);
                  s.compile_s /. Float.max 1e-9 q.compile_s;
                  q.exec_us;
                  s.exec_us;
                  q.rel_err;
                  s.rel_err;
                ]))
        (sweep_sizes ());
      Table_fmt.print ~title:(title ^ " — " ^ name) t)
    benchmarks;
  summarize_pairs !all_pairs;
  let qexp, sexp = scaling_exponents !all_points in
  Printf.printf
    "summary: compile-time scaling t ~ n^k — QTurbo k=%.1f, baseline k=%.1f \
     (log-log fit over n >= 13)\n"
    qexp sexp

let fig3 () =
  sweep ~title:"Fig. 3 (Rydberg AAIS)"
    ~benchmarks:[ "ising-chain"; "ising-cycle"; "kitaev"; "ising-cycle+" ]
    ~make_aais:(fun name n ->
      let ryd = rydberg_for name n in
      (ryd.Rydberg.aais, static_target name n))
    ~budget:(if !quick then 10.0 else 30.0)

let fig4 () =
  sweep ~title:"Fig. 4 (Heisenberg AAIS)"
    ~benchmarks:[ "ising-chain"; "ising-cycle"; "kitaev"; "heis-chain" ]
    ~make_aais:(fun name n ->
      (* cycle targets need ring connectivity *)
      let ring = name = "ising-cycle" in
      let heis =
        Heisenberg.build ~spec:{ Device.heisenberg_default with Device.ring } ~n
      in
      (heis.Heisenberg.aais, static_target name n))
    ~budget:(if !quick then 10.0 else 30.0)

(* ------------------------------------------------------------------ *)
(* Figure 5a: mapping case study                                       *)

let fig5a () =
  let sizes = if !quick then [ 13; 23 ] else [ 13; 43; 93 ] in
  let t =
    Table_fmt.create
      ~header:[ "n"; "QT comp(s)"; "SQ comp(s)"; "speedup"; "QT T(us)"; "QT err%" ]
  in
  let rng = Rng.create ~seed:5150L in
  List.iter
    (fun n ->
      progress "fig5a: n = %d" n;
      (* present the compiler with a randomly relabelled chain: the
         mapping step must first recover the chain order *)
      let natural = static_target "ising-chain" n in
      let perm = Array.init n Fun.id in
      Rng.shuffle rng perm;
      let shuffled = Qturbo_core.Mapping.apply perm natural in
      let compile_with_mapping () =
        let m = Qturbo_core.Mapping.greedy_chain ~target:shuffled ~n in
        let mapped = Qturbo_core.Mapping.apply m shuffled in
        let ryd = rydberg_for "ising-chain" n in
        Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target:mapped
          ~t_tar:1.0 ()
      in
      let q_s, q = time_run compile_with_mapping in
      let s_s, s =
        time_run (fun () ->
            let m = Qturbo_core.Mapping.greedy_chain ~target:shuffled ~n in
            let mapped = Qturbo_core.Mapping.apply m shuffled in
            let ryd = rydberg_for "ising-chain" n in
            simuq_point ~budget:(if !quick then 10.0 else 30.0) ~name:"fig5a"
              ~aais:ryd.Rydberg.aais ~target:mapped ~t_tar:1.0 ~n ())
      in
      Table_fmt.add_row t
        ([ string_of_int n ]
        @ List.map Table_fmt.cell_of_float
            [
              q_s;
              (if Float.is_finite s.rel_err then s_s else Float.nan);
              s_s /. Float.max 1e-9 q_s;
              q.Qturbo_core.Compiler.t_sim;
              q.Qturbo_core.Compiler.relative_error;
            ]))
    sizes;
  Table_fmt.print
    ~title:"Fig. 5a: Ising chain with initially-unknown mapping (Rydberg)" t

(* ------------------------------------------------------------------ *)
(* Figure 5b: time-dependent MIS chain                                 *)

let fig5b () =
  let sizes = if !quick then [ 3; 8 ] else [ 3; 8; 13; 23 ] in
  let segments = 4 in
  let t =
    Table_fmt.create
      ~header:
        [
          "n"; "QT comp(s)"; "SQ comp(s)"; "speedup"; "QT T(us)"; "SQ T(us)";
          "QT err%"; "SQ err%";
        ]
  in
  List.iter
    (fun n ->
      progress "fig5b: n = %d" n;
      let model = Qturbo_models.Benchmarks.mis_chain ~n () in
      let ryd = rydberg_for "mis-chain" n in
      let q_s, q =
        time_run (fun () ->
            Qturbo_core.Td_compiler.compile ~aais:ryd.Rydberg.aais ~model
              ~t_tar:1.0 ~segments ())
      in
      (* the baseline compiles each piecewise segment through its global
         mixed system independently (costs and errors summed) *)
      let hams = Qturbo_models.Model.discretize model ~segments in
      let tau = 1.0 /. float_of_int segments in
      let s_points =
        List.mapi
          (fun k h ->
            simuq_point
              ~budget:(if !quick then 5.0 else 20.0)
              ~name:(Printf.sprintf "fig5b-seg%d" k)
              ~aais:ryd.Rydberg.aais
              ~target:(Qturbo_pauli.Pauli_sum.drop_identity h)
              ~t_tar:tau ~n ())
          hams
      in
      let s_ok = List.for_all (fun p -> Float.is_finite p.rel_err) s_points in
      let s_comp = List.fold_left (fun acc p -> acc +. p.compile_s) 0.0 s_points in
      let s_exec = List.fold_left (fun acc p -> acc +. p.exec_us) 0.0 s_points in
      let s_err =
        List.fold_left (fun acc p -> acc +. p.rel_err) 0.0 s_points
        /. float_of_int segments
      in
      Table_fmt.add_row t
        ([ string_of_int n ]
        @ List.map Table_fmt.cell_of_float
            [
              q_s;
              (if s_ok then s_comp else Float.nan);
              s_comp /. Float.max 1e-9 q_s;
              q.Qturbo_core.Td_compiler.t_sim;
              (if s_ok then s_exec else Float.nan);
              q.Qturbo_core.Td_compiler.relative_error;
              (if s_ok then s_err else Float.nan);
            ]))
    sizes;
  Table_fmt.print
    ~title:
      (Printf.sprintf
         "Fig. 5b: time-dependent MIS chain, %d piecewise segments (Rydberg)"
         segments)
    t

(* ------------------------------------------------------------------ *)
(* Figure 6: noisy-device emulation                                    *)

let emulate ~seed ~shots ~trajectories ~cycle pulse =
  let rng = Rng.create ~seed in
  Qturbo_device_noise.Emulator.run ~rng
    ~noise:Qturbo_device_noise.Noise_model.aquila ~shots ~trajectories ~cycle
    ~pulse ()

let observables_of_state ~cycle st =
  ( Qturbo_quantum.Observable.z_avg st,
    Qturbo_quantum.Observable.zz_avg ~cycle st )

let fig6 ~title ~n ~spec ~model_of ~t_tars ~cycle ~t_max () =
  let shots = if !quick then 120 else 300 in
  let trajectories = if !quick then 6 else 12 in
  let t =
    Table_fmt.create
      ~header:
        [
          "T_tar(us)"; "QT T(us)"; "SQ T(us)"; "Z th"; "Z QT(TH)"; "Z SQ(TH)";
          "Z QT"; "Z SQ"; "ZZ th"; "ZZ QT"; "ZZ SQ";
        ]
  in
  let errs_q = ref [] and errs_s = ref [] in
  let zz_errs_q = ref [] and zz_errs_s = ref [] in
  List.iter
    (fun t_tar ->
      progress "%s: T_tar = %.2f us" title t_tar;
      let target = model_of () in
      let ryd = Rydberg.build ~spec ~n in
      let q =
        Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar ()
      in
      let q_pulse =
        Qturbo_core.Extract.rydberg_pulse ryd ~env:q.Qturbo_core.Compiler.env
          ~t_sim:q.Qturbo_core.Compiler.t_sim
      in
      let s =
        Qturbo_simuq.Simuq_compiler.compile
          ~options:
            {
              Qturbo_simuq.Simuq_compiler.default_options with
              Qturbo_simuq.Simuq_compiler.t_max;
              seed = simuq_seed title (int_of_float (100.0 *. t_tar));
            }
          ~aais:ryd.Rydberg.aais ~target ~t_tar ()
      in
      let th_state =
        Qturbo_quantum.Evolve.evolve ~h:target ~t:t_tar
          (Qturbo_quantum.State.ground ~n)
      in
      let z_th, zz_th = observables_of_state ~cycle th_state in
      let z_qth, _ =
        observables_of_state ~cycle
          (Qturbo_device_noise.Emulator.noiseless_final_state ~pulse:q_pulse)
      in
      let q_noisy = emulate ~seed:61L ~shots ~trajectories ~cycle q_pulse in
      let z_q = q_noisy.Qturbo_device_noise.Emulator.z_avg in
      let zz_q = q_noisy.Qturbo_device_noise.Emulator.zz_avg in
      errs_q := Float.abs (z_q -. z_th) :: !errs_q;
      zz_errs_q := Float.abs (zz_q -. zz_th) :: !zz_errs_q;
      let s_t, z_sth, z_s, zz_s =
        if not s.Qturbo_simuq.Simuq_compiler.success then
          (Float.nan, Float.nan, Float.nan, Float.nan)
        else begin
          let s_pulse =
            Qturbo_core.Extract.rydberg_pulse ryd
              ~env:s.Qturbo_simuq.Simuq_compiler.env
              ~t_sim:s.Qturbo_simuq.Simuq_compiler.t_sim
          in
          let z_sth, _ =
            observables_of_state ~cycle
              (Qturbo_device_noise.Emulator.noiseless_final_state ~pulse:s_pulse)
          in
          let s_noisy = emulate ~seed:62L ~shots ~trajectories ~cycle s_pulse in
          errs_s :=
            Float.abs (s_noisy.Qturbo_device_noise.Emulator.z_avg -. z_th)
            :: !errs_s;
          zz_errs_s :=
            Float.abs (s_noisy.Qturbo_device_noise.Emulator.zz_avg -. zz_th)
            :: !zz_errs_s;
          ( s.Qturbo_simuq.Simuq_compiler.t_sim,
            z_sth,
            s_noisy.Qturbo_device_noise.Emulator.z_avg,
            s_noisy.Qturbo_device_noise.Emulator.zz_avg )
        end
      in
      Table_fmt.add_float_row t
        ~label:(Printf.sprintf "%.3f" t_tar)
        [
          q.Qturbo_core.Compiler.t_sim; s_t; z_th; z_qth; z_sth; z_q; z_s; zz_th;
          zz_q; zz_s;
        ])
    t_tars;
  Table_fmt.print ~title t;
  match (!errs_q, !errs_s) with
  | _ :: _, _ :: _ ->
      let mq = Stats.mean (Array.of_list !errs_q) in
      let ms = Stats.mean (Array.of_list !errs_s) in
      let zq = Stats.mean (Array.of_list !zz_errs_q) in
      let zs = Stats.mean (Array.of_list !zz_errs_s) in
      Printf.printf
        "summary: mean |Z - theory| — QTurbo %.4f vs SimuQ %.4f (%.0f%% error \
         reduction)\n"
        mq ms
        (100.0 *. (1.0 -. (mq /. ms)));
      Printf.printf
        "summary: mean |ZZ - theory| — QTurbo %.4f vs SimuQ %.4f (%.0f%% error \
         reduction)\n"
        zq zs
        (100.0 *. (1.0 -. (zq /. zs)))
  | _, _ -> print_endline "summary: baseline produced no noisy points"

let fig6a () =
  let t_tars =
    if !quick then [ 0.5; 1.0 ] else [ 0.5; 0.625; 0.75; 0.875; 1.0 ]
  in
  fig6 ~title:"Fig. 6a: 12-atom Ising cycle on the Aquila emulator"
    ~n:(if !quick then 8 else 12)
    ~spec:Device.aquila_fig6a
    ~model_of:(fun () ->
      Qturbo_pauli.Pauli_sum.drop_identity
        (Qturbo_models.Model.hamiltonian_at
           (Qturbo_models.Benchmarks.ising_cycle
              ~n:(if !quick then 8 else 12)
              ~j:0.157 ~h:0.785 ())
           ~s:0.0))
    ~t_tars ~cycle:true ~t_max:4.0 ()

let fig6b () =
  let t_tars = if !quick then [ 5.0; 20.0 ] else [ 5.0; 10.0; 15.0; 20.0 ] in
  fig6 ~title:"Fig. 6b: 6-atom PXP on the Aquila emulator" ~n:6
    ~spec:Device.aquila_fig6b
    ~model_of:(fun () ->
      Qturbo_pauli.Pauli_sum.drop_identity
        (Qturbo_models.Model.hamiltonian_at
           (Qturbo_models.Benchmarks.pxp ~n:6 ~j:1.26 ~h:0.126 ())
           ~s:0.0))
    ~t_tars ~cycle:false ~t_max:4.0 ()

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md §5                                           *)

let ablations () =
  let n = if !quick then 13 else 23 in
  let ryd () = rydberg_for "ising-chain" n in
  let target = static_target "ising-chain" n in
  let compile options =
    let r = ryd () in
    time_run (fun () ->
        Qturbo_core.Compiler.compile ~options ~aais:r.Rydberg.aais ~target
          ~t_tar:1.0 ())
  in
  let base = Qturbo_core.Compiler.default_options in
  let t = Table_fmt.create ~header:[ "variant"; "compile(s)"; "T_sim(us)"; "err%" ] in
  let row label options =
    progress "ablation: %s" label;
    let s, r = compile options in
    Table_fmt.add_row t
      [
        label;
        Table_fmt.cell_of_float s;
        Table_fmt.cell_of_float r.Qturbo_core.Compiler.t_sim;
        Table_fmt.cell_of_float r.Qturbo_core.Compiler.relative_error;
      ]
  in
  row "full QTurbo" base;
  row "no refinement (§6.2 off)" { base with Qturbo_core.Compiler.refine = false };
  row "no time optimisation (§5.1 off)"
    { base with Qturbo_core.Compiler.time_opt = false };
  row "dense linear solver"
    { base with Qturbo_core.Compiler.dense_linear_solver = true };
  row "generic local solver (no analytic patterns)"
    { base with Qturbo_core.Compiler.generic_local_solver = true };
  Table_fmt.print
    ~title:(Printf.sprintf "Ablations (Ising chain, n = %d, Rydberg)" n)
    t

(* ------------------------------------------------------------------ *)
(* Overhead of the pre-solve static analyzer (qturbo.analysis)          *)

(* The analyzer runs as a fail-fast precheck inside every compile:
   [Compile_plan.diagnose] against the obtained plan, whose tables and
   structure findings were computed when it was built, is exactly that
   marginal work.  Measured against the end-to-end compile on the
   Fig. 3 Ising-cycle sweep.  [analyze(s)] is the standalone entry
   point ([qturbo check]) in a fresh process, which builds the plan. *)
let analysis () =
  let name = "ising-cycle" in
  let reps = 5 in
  let best f =
    let rec go i acc =
      if i = 0 then acc
      else
        let s, _ = time_run f in
        go (i - 1) (Float.min acc s)
    in
    go reps Float.infinity
  in
  let t =
    Table_fmt.create
      ~header:
        [
          "n";
          "analyze(s)";
          "precheck(s)";
          "verify(s)";
          "lint(s)";
          "compile(s)";
          "lint1shot%";
        ]
  in
  let rows =
    List.map
      (fun n ->
        let n = Int.max n (min_size name) in
        progress "analysis overhead: n = %d" n;
        let ryd = rydberg_for name n in
        let aais = ryd.Rydberg.aais in
        let target = static_target name n in
        (* empty caches and an empty key memo, as in a fresh process *)
        let analyze_s =
          best (fun () ->
              Qturbo_core.Compile_plan.clear_caches ();
              Qturbo_core.Compiler.analyze
                ~aais:(Qturbo_aais.Aais.without_key_memo aais)
                ~target ~t_tar:1.0 ())
        in
        let plan, _ =
          Qturbo_core.Compile_plan.obtain
            ~options:Qturbo_core.Compiler.default_options ~aais ~target
        in
        let precheck_s =
          best (fun () ->
              Qturbo_core.Compile_plan.diagnose ~aais ~plan ~t_tar:1.0 target)
        in
        (* stage-two analyzer: kernel verifier over every channel kernel,
           plan linter over the built plan.  Both run inside qturbo lint
           and nowhere on the compile path (the kernel verifier only
           under QTURBO_VERIFY_KERNELS). *)
        let verify_s =
          best (fun () -> ignore (Qturbo_analysis.Kernel_check.check_aais aais))
        in
        let lint_s =
          best (fun () -> ignore (Qturbo_core.Compile_plan.lint plan))
        in
        (* cold compile: [qturbo lint] runs in a fresh process, so the
           denominator rebuilds the plan rather than serving it from the
           warm cache *)
        let compile_s =
          best (fun () ->
              Qturbo_core.Compiler.compile
                ~options:
                  {
                    Qturbo_core.Compiler.default_options with
                    Qturbo_core.Compiler.plan_cache = false;
                  }
                ~aais ~target ~t_tar:1.0 ())
        in
        let overhead_pct =
          100.0 *. (verify_s +. lint_s) /. Float.max 1e-9 compile_s
        in
        Table_fmt.add_row t
          [
            string_of_int n;
            Table_fmt.cell_of_float analyze_s;
            Table_fmt.cell_of_float precheck_s;
            Table_fmt.cell_of_float verify_s;
            Table_fmt.cell_of_float lint_s;
            Table_fmt.cell_of_float compile_s;
            Table_fmt.cell_of_float overhead_pct;
          ];
        (n, analyze_s, precheck_s, verify_s, lint_s, compile_s, overhead_pct))
      (sweep_sizes ())
  in
  Table_fmt.print
    ~title:
      "Static-analysis overhead (Ising cycle, best of 5; lint1shot% = \
       verify + lint vs one cold compile, what qturbo lint adds)"
    t;
  let oc = open_out "BENCH_analysis.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"%s\",\n\
    \  \"reps\": %d,\n\
    \  \"series\": [\n%s\n\
    \  ]\n\
     }\n"
    name reps
    (String.concat ",\n"
       (List.map
          (fun (n, analyze_s, precheck_s, verify_s, lint_s, compile_s, pct) ->
            Printf.sprintf
              "    {\"n\": %d, \"analyze_seconds\": %.6f, \
               \"precheck_seconds\": %.6f, \"kernel_verify_seconds\": %.6f, \
               \"plan_lint_seconds\": %.6f, \"compile_seconds\": %.6f, \
               \"lint_oneshot_overhead_percent\": %.4f}"
              n analyze_s precheck_s verify_s lint_s compile_s pct)
          rows));
  close_out oc;
  progress "analysis: wrote BENCH_analysis.json"

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's evaluation                            *)

(* error vs noise magnitude: how fast each compiler's pulse degrades as
   the quasi-static noise scale grows (extends the Fig. 6 mechanism) *)
let ext_noise () =
  let n = 6 in
  let spec = Device.aquila_fig6a in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_cycle ~n ~j:0.157 ~h:0.785 ())
         ~s:0.0)
  in
  let t_tar = 1.0 in
  let ryd = Rydberg.build ~spec ~n in
  let q = Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar () in
  let q_pulse =
    Qturbo_core.Extract.rydberg_pulse ryd ~env:q.Qturbo_core.Compiler.env
      ~t_sim:q.Qturbo_core.Compiler.t_sim
  in
  let s =
    Qturbo_simuq.Simuq_compiler.compile
      ~options:
        {
          Qturbo_simuq.Simuq_compiler.default_options with
          Qturbo_simuq.Simuq_compiler.t_max = 4.0;
        }
      ~aais:ryd.Rydberg.aais ~target ~t_tar ()
  in
  if not s.Qturbo_simuq.Simuq_compiler.success then
    print_endline "ext-noise: baseline failed; skipping"
  else begin
    let s_pulse =
      Qturbo_core.Extract.rydberg_pulse ryd
        ~env:s.Qturbo_simuq.Simuq_compiler.env
        ~t_sim:s.Qturbo_simuq.Simuq_compiler.t_sim
    in
    let th =
      Qturbo_quantum.Observable.z_avg
        (Qturbo_quantum.Evolve.evolve ~h:target ~t:t_tar
           (Qturbo_quantum.State.ground ~n))
    in
    let shots = if !quick then 150 else 400 in
    let t =
      Table_fmt.create
        ~header:[ "noise scale"; "|dZ| QTurbo"; "|dZ| SimuQ"; "ratio" ]
    in
    List.iter
      (fun scale ->
        progress "ext-noise: scale %.2f" scale;
        let noise =
          Qturbo_device_noise.Noise_model.scaled scale
            {
              Qturbo_device_noise.Noise_model.aquila with
              Qturbo_device_noise.Noise_model.readout =
                Qturbo_quantum.Measurement.perfect_readout;
            }
        in
        let err pulse seed =
          let rng = Rng.create ~seed in
          let o =
            Qturbo_device_noise.Emulator.run ~rng ~noise ~shots
              ~trajectories:16 ~pulse ()
          in
          Float.abs (o.Qturbo_device_noise.Emulator.z_avg -. th)
        in
        let eq = ((err q_pulse 31L) +. (err q_pulse 32L)) /. 2.0 in
        let es = ((err s_pulse 33L) +. (err s_pulse 34L)) /. 2.0 in
        Table_fmt.add_float_row t
          ~label:(Printf.sprintf "%.2f" scale)
          [ eq; es; es /. Float.max 1e-9 eq ])
      (if !quick then [ 0.5; 2.0 ] else [ 0.25; 0.5; 1.0; 2.0; 4.0 ]);
    Table_fmt.print
      ~title:
        (Printf.sprintf
           "Extension: noise sensitivity (QTurbo pulse %.3f us vs baseline \
            %.3f us, readout off)"
           (Pulse.rydberg_duration q_pulse)
           (Pulse.rydberg_duration s_pulse))
      t
  end

(* Markovian (Lindblad-unravelled) noise: like ext-noise but with
   continuous dephasing/decay, which also integrates over the pulse
   duration and so also favours the shorter pulse *)
let ext_markovian () =
  let n = 6 in
  let spec = Device.aquila_fig6a in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_cycle ~n ~j:0.157 ~h:0.785 ())
         ~s:0.0)
  in
  let t_tar = 1.0 in
  let ryd = Rydberg.build ~spec ~n in
  let q = Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar () in
  let q_pulse =
    Qturbo_core.Extract.rydberg_pulse ryd ~env:q.Qturbo_core.Compiler.env
      ~t_sim:q.Qturbo_core.Compiler.t_sim
  in
  let s =
    Qturbo_simuq.Simuq_compiler.compile
      ~options:
        {
          Qturbo_simuq.Simuq_compiler.default_options with
          Qturbo_simuq.Simuq_compiler.t_max = 4.0;
        }
      ~aais:ryd.Rydberg.aais ~target ~t_tar ()
  in
  if not s.Qturbo_simuq.Simuq_compiler.success then
    print_endline "ext-markovian: baseline failed; skipping"
  else begin
    let s_pulse =
      Qturbo_core.Extract.rydberg_pulse ryd
        ~env:s.Qturbo_simuq.Simuq_compiler.env
        ~t_sim:s.Qturbo_simuq.Simuq_compiler.t_sim
    in
    let th =
      Qturbo_quantum.Observable.z_avg
        (Qturbo_quantum.Evolve.evolve ~h:target ~t:t_tar
           (Qturbo_quantum.State.ground ~n))
    in
    let shots = if !quick then 100 else 240 in
    let t =
      Table_fmt.create
        ~header:[ "dephasing (1/us)"; "|dZ| QTurbo"; "|dZ| SimuQ"; "ratio" ]
    in
    List.iter
      (fun rate ->
        progress "ext-markovian: rate %.2f" rate;
        let noise =
          {
            Qturbo_device_noise.Noise_model.ideal with
            Qturbo_device_noise.Noise_model.dephasing_rate = rate;
            decay_rate = rate /. 2.0;
          }
        in
        let err pulse seed =
          let rng = Rng.create ~seed in
          let o =
            Qturbo_device_noise.Emulator.run ~rng ~noise ~shots
              ~trajectories:12 ~pulse ()
          in
          Float.abs (o.Qturbo_device_noise.Emulator.z_avg -. th)
        in
        let eq = ((err q_pulse 41L) +. (err q_pulse 42L)) /. 2.0 in
        let es = ((err s_pulse 43L) +. (err s_pulse 44L)) /. 2.0 in
        Table_fmt.add_float_row t
          ~label:(Printf.sprintf "%.2f" rate)
          [ eq; es; es /. Float.max 1e-9 eq ])
      (if !quick then [ 0.5 ] else [ 0.1; 0.3; 1.0 ]);
    Table_fmt.print
      ~title:
        (Printf.sprintf
           "Extension: Markovian noise via quantum jumps (QTurbo %.3f us vs \
            baseline %.3f us)"
           (Pulse.rydberg_duration q_pulse)
           (Pulse.rydberg_duration s_pulse))
      t
  end

(* digital (Suzuki-Trotter) vs analog: the paper's §1 motivation made
   quantitative — gates needed by the digital route to match the analog
   pulse's accuracy *)
let ext_digital () =
  let n = if !quick then 6 else 8 in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_chain ~n ())
         ~s:0.0)
  in
  let t_tar = 1.0 in
  (* analog side: compile and evolve the pulse, measure its infidelity *)
  let ryd = Rydberg.build ~spec:relaxed_line ~n in
  let q = Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar () in
  let pulse =
    Qturbo_core.Extract.rydberg_pulse ryd ~env:q.Qturbo_core.Compiler.env
      ~t_sim:q.Qturbo_core.Compiler.t_sim
  in
  let ground = Qturbo_quantum.State.ground ~n in
  let exact = Qturbo_quantum.Evolve.evolve ~h:target ~t:t_tar ground in
  let analog_state =
    Qturbo_quantum.Evolve.evolve_piecewise
      ~segments:(Pulse.rydberg_segment_hamiltonians pulse)
      ground
  in
  let analog_infidelity =
    1.0 -. Qturbo_quantum.State.fidelity exact analog_state
  in
  Printf.printf
    "\n== Extension: digital (Trotter) vs analog (Ising chain, n = %d) ==\n" n;
  Printf.printf "analog pulse: %.3f us, infidelity %.3e, 0 gates\n"
    (Pulse.rydberg_duration pulse) analog_infidelity;
  let t =
    Table_fmt.create
      ~header:[ "trotter steps"; "order"; "gates"; "infidelity" ]
  in
  List.iter
    (fun steps ->
      List.iter
        (fun order ->
          let infid =
            Qturbo_quantum.Trotter.error_vs_exact ~h:target ~t:t_tar ~steps
              ~order ground
          in
          Table_fmt.add_row t
            [
              string_of_int steps;
              (match order with `First -> "1st" | `Second -> "2nd");
              string_of_int
                (Qturbo_quantum.Trotter.gate_count ~h:target ~steps ~order);
              Printf.sprintf "%.3e" infid;
            ])
        [ `First; `Second ])
    (if !quick then [ 4; 16 ] else [ 4; 16; 64; 256 ]);
  Table_fmt.print t

(* segment-count convergence of the time-dependent compiler (§5.3):
   discretization error vs K, with the compiled pulse checked against the
   exact driven evolution *)
let ext_segments () =
  let n = 4 in
  let model = Qturbo_models.Benchmarks.mis_chain ~n () in
  let t_tar = 1.0 in
  let ground = Qturbo_quantum.State.ground ~n in
  let exact =
    Qturbo_quantum.Evolve.evolve_time_dependent
      ~h_of_t:(fun t ->
        Qturbo_pauli.Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at model ~s:(t /. t_tar)))
      ~t:t_tar ~steps:800 ground
  in
  let t =
    Table_fmt.create
      ~header:[ "segments"; "compile(s)"; "T_sim(us)"; "rel err%"; "1-fidelity" ]
  in
  List.iter
    (fun segments ->
      progress "ext-segments: K = %d" segments;
      let ryd = rydberg_for "mis-chain" n in
      let compile_s, td =
        time_run (fun () ->
            Qturbo_core.Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar
              ~segments ())
      in
      let pulse =
        Qturbo_core.Extract.rydberg_pulse_segments ryd
          ~segments:
            (List.map
               (fun (s : Qturbo_core.Td_compiler.segment_result) ->
                 (s.Qturbo_core.Td_compiler.env, s.Qturbo_core.Td_compiler.duration))
               td.Qturbo_core.Td_compiler.segments)
      in
      let final =
        Qturbo_quantum.Evolve.evolve_piecewise
          ~segments:(Pulse.rydberg_segment_hamiltonians pulse)
          ground
      in
      Table_fmt.add_float_row t
        ~label:(string_of_int segments)
        [
          compile_s;
          td.Qturbo_core.Td_compiler.t_sim;
          td.Qturbo_core.Td_compiler.relative_error;
          1.0 -. Qturbo_quantum.State.fidelity exact final;
        ])
    (if !quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ]);
  Table_fmt.print
    ~title:"Extension: piecewise-segment convergence (MIS chain, n = 4)" t

(* ------------------------------------------------------------------ *)
(* Multicore throughput and compiled-kernel speedup                    *)

(* Whole-sweep throughput, not per-point timing: concurrent compiles
   perturb each other's clocks, so the honest parallel measurement is
   the wall time of the complete Fig. 3 Ising-cycle sweep with points
   distributed over the pool, against the same sweep run sequentially.
   Also checks the parallel run's outputs bitwise against the
   sequential ones, and measures compiled-kernel vs interpreted channel
   evaluation.  Results land in BENCH_parallel.json. *)
let parallel () =
  let name = "ising-cycle" in
  let sizes = if !quick then [ 13; 23 ] else [ 49; 63; 79; 93 ] in
  let inputs =
    List.map
      (fun n ->
        let ryd = rydberg_for name n in
        (n, ryd.Rydberg.aais, static_target name n))
      sizes
  in
  let compile_with ~domains (_, aais, target) =
    let options =
      { Qturbo_core.Compiler.default_options with Qturbo_core.Compiler.domains }
    in
    Qturbo_core.Compiler.compile ~options ~aais ~target ~t_tar:1.0 ()
  in
  let run_sweep ~outer ~inner =
    time_run (fun () ->
        Qturbo_par.Pool.parallel_map_list ~domains:outer ~chunk:1
          (compile_with ~domains:inner) inputs)
  in
  let domains = Int.max 4 (Qturbo_par.Pool.default_domains ()) in
  let cores = Domain.recommended_domain_count () in
  progress "parallel: warmup";
  ignore (run_sweep ~outer:1 ~inner:1);
  progress "parallel: sweep with 1 domain";
  let t_seq, r_seq = run_sweep ~outer:1 ~inner:1 in
  progress "parallel: sweep with %d domains (%d cores)" domains cores;
  let t_par, r_par = run_sweep ~outer:domains ~inner:1 in
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         a b
  in
  let identical =
    List.for_all2
      (fun (q : Qturbo_core.Compiler.result) (p : Qturbo_core.Compiler.result) ->
        bits_equal q.Qturbo_core.Compiler.env p.Qturbo_core.Compiler.env
        && bits_equal q.Qturbo_core.Compiler.alpha_achieved
             p.Qturbo_core.Compiler.alpha_achieved
        && q.Qturbo_core.Compiler.t_sim = p.Qturbo_core.Compiler.t_sim)
      r_seq r_par
  in
  let sweep_speedup = t_seq /. Float.max 1e-9 t_par in
  (* compiled kernels vs the recursive interpreter, over every channel
     of the largest sweep point *)
  let _, aais_k, _ = List.nth inputs (List.length inputs - 1) in
  let channels = Aais.channels aais_k in
  let vars = Aais.variables aais_k in
  let env =
    Array.map (fun (v : Variable.t) -> v.Variable.init +. 0.37) vars
  in
  let reps = if !quick then 200 else 300 in
  let sink = ref 0.0 in
  (* one untimed pass each: populates the domain-local eval stack and
     warms the code paths *)
  let exprs = Array.map Instruction.expr channels in
  Array.iteri
    (fun i (c : Instruction.channel) ->
      sink := !sink +. Expr.eval exprs.(i) ~env;
      sink := !sink +. Instruction.eval_channel c ~env)
    channels;
  let interp_s, () =
    time_run (fun () ->
        for _ = 1 to reps do
          Array.iter (fun e -> sink := !sink +. Expr.eval e ~env) exprs
        done)
  in
  let kernel_s, () =
    time_run (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun (c : Instruction.channel) ->
              sink := !sink +. Instruction.eval_channel c ~env)
            channels
        done)
  in
  let kernel_speedup = interp_s /. Float.max 1e-9 kernel_s in
  let t =
    Table_fmt.create ~header:[ "measurement"; "seq(s)"; "par(s)"; "speedup" ]
  in
  Table_fmt.add_row t
    [
      Printf.sprintf "sweep n=%s (%d domains)"
        (String.concat "," (List.map string_of_int sizes))
        domains;
      Table_fmt.cell_of_float t_seq;
      Table_fmt.cell_of_float t_par;
      Table_fmt.cell_of_float sweep_speedup;
    ];
  Table_fmt.add_row t
    [
      Printf.sprintf "kernel eval (%d channels x %d)" (Array.length channels)
        reps;
      Table_fmt.cell_of_float interp_s;
      Table_fmt.cell_of_float kernel_s;
      Table_fmt.cell_of_float kernel_speedup;
    ];
  Table_fmt.print
    ~title:
      (Printf.sprintf
         "Parallel throughput (Fig. 3 Ising-cycle sweep; %d cores; outputs \
          bitwise-identical: %b)"
         cores identical)
    t;
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"%s\",\n\
    \  \"sizes\": [%s],\n\
    \  \"cores\": %d,\n\
    \  \"domains\": %d,\n\
    \  \"sweep_seconds_sequential\": %.6f,\n\
    \  \"sweep_seconds_parallel\": %.6f,\n\
    \  \"sweep_speedup\": %.3f,\n\
    \  \"outputs_bitwise_identical\": %b,\n\
    \  \"kernel_eval\": {\n\
    \    \"channels\": %d,\n\
    \    \"passes\": %d,\n\
    \    \"interpreted_seconds\": %.6f,\n\
    \    \"compiled_seconds\": %.6f,\n\
    \    \"speedup\": %.3f\n\
    \  }\n\
     }\n"
    name
    (String.concat ", " (List.map string_of_int sizes))
    cores domains t_seq t_par sweep_speedup identical (Array.length channels)
    reps interp_s kernel_s kernel_speedup;
  close_out oc;
  progress "parallel: wrote BENCH_parallel.json"

(* ------------------------------------------------------------------ *)
(* Resilience supervisor: recovery rates                               *)

(* Does the escalation ladder actually recover each fault class?  Every
   class is injected on a small instance and the compile's failure
   records say which stage rescued it.  Results land in
   BENCH_robustness.json. *)
let robustness () =
  let module F = Qturbo_resilience.Fault in
  let n_small = 5 in
  let ryd = rydberg_for "ising-chain" n_small in
  let target = static_target "ising-chain" n_small in
  let clean =
    Qturbo_core.Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  let cases =
    [
      ("nan residual", "lm=nan");
      ("singular jacobian", "lm=singular");
      ("budget exhausted", "lm=budget");
      ("stage deadline", "lm=deadline");
      ("two stages down", "lm=nan,lm-retry=singular");
      ("retry exhausted", "constraint-loop=retry");
      ("all stages down", "*=nan");
    ]
  in
  let rt =
    Table_fmt.create
      ~header:[ "fault"; "recovered"; "records"; "err%"; "clean err%" ]
  in
  let case_results =
    List.map
      (fun (label, spec) ->
        progress "robustness: injecting %s" spec;
        let options =
          {
            Qturbo_core.Compiler.default_options with
            Qturbo_core.Compiler.best_effort = true;
            faults = Some (F.parse_exn spec);
          }
        in
        let r =
          Qturbo_core.Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target
            ~t_tar:1.0 ()
        in
        let recovered = not r.Qturbo_core.Compiler.degraded in
        Table_fmt.add_row rt
          [
            label;
            string_of_bool recovered;
            string_of_int (List.length r.Qturbo_core.Compiler.failures);
            Table_fmt.cell_of_float r.Qturbo_core.Compiler.relative_error;
            Table_fmt.cell_of_float clean.Qturbo_core.Compiler.relative_error;
          ];
        (label, spec, recovered,
         List.length r.Qturbo_core.Compiler.failures,
         r.Qturbo_core.Compiler.relative_error))
      cases
  in
  Table_fmt.print
    ~title:
      (Printf.sprintf
         "Fault recovery (Ising chain, n = %d, best-effort; \"retry \
          exhausted\" and \"all stages down\" are expected to stay \
          degraded)"
         n_small)
    rt;
  let oc = open_out "BENCH_robustness.json" in
  Printf.fprintf oc "{\n  \"recovery\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (label, spec, recovered, records, err) ->
            Printf.sprintf
              "    {\"fault\": \"%s\", \"spec\": \"%s\", \"recovered\": %b, \
               \"records\": %d, \"relative_error_percent\": %.6f}"
              label spec recovered records err)
          case_results));
  close_out oc;
  progress "robustness: wrote BENCH_robustness.json"

(* ------------------------------------------------------------------ *)
(* Staged-pipeline economics: how much of a compile is the reusable    *)
(* coefficient-free front end, and what the structural plan cache buys *)
(* on repeated solves over one shape.  Results land in BENCH_plan.json *)

let plan () =
  let module C = Qturbo_core.Compiler in
  let module CP = Qturbo_core.Compile_plan in
  (* front-end share: one cold compile per size, splitting the wall
     clock into plan build vs numeric solve *)
  let share_sizes = if !quick then [ 5; 13 ] else [ 20; 60; 93 ] in
  let share =
    List.map
      (fun n ->
        let ryd = rydberg_for "ising-chain" n in
        let target = static_target "ising-chain" n in
        CP.clear_caches ();
        let total_s, r =
          time_run (fun () ->
              C.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ())
        in
        let b = r.C.plan.C.build_seconds and s = r.C.plan.C.solve_seconds in
        let pct = 100.0 *. b /. Float.max 1e-12 (b +. s) in
        progress "plan: n=%d front-end %.1f%% (build %.3f ms, solve %.3f ms)" n
          pct (1e3 *. b) (1e3 *. s);
        (n, b, s, total_s, pct))
      share_sizes
  in
  (* warm vs cold: K coefficient sets per size on the Fig. 3
     ising-cycle series; cold rebuilds the plan for every instance,
     warm reuses the cached one *)
  let k = if !quick then 8 else 20 in
  let coeffs i =
    (0.2 +. (0.11 *. float_of_int i), 0.45 +. (0.07 *. float_of_int i))
  in
  let warm_cold_series ~label ~make =
    List.map
      (fun n ->
        let aais, targets = make n in
        let run options =
          CP.clear_caches ();
          time_run (fun () ->
              List.map
                (fun target -> C.compile ~options ~aais ~target ~t_tar:1.0 ())
                targets)
        in
        let cold_s, _ = run { C.default_options with C.plan_cache = false } in
        let warm_s, warm = run C.default_options in
        let hits = (List.nth warm (k - 1)).C.plan.C.cache_hits in
        let speedup = cold_s /. Float.max 1e-12 warm_s in
        progress
          "plan: %s n=%d cold %.3f s warm %.3f s speedup %.2fx (%d hits)"
          label n cold_s warm_s speedup hits;
        (n, cold_s, warm_s, speedup, hits))
      (sweep_sizes ())
  in
  let targets_for model n =
    List.init k (fun i ->
        let j, h = coeffs i in
        Qturbo_pauli.Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at (model ~n ~j ~h) ~s:0.0))
  in
  let series =
    warm_cold_series ~label:"ising-cycle" ~make:(fun n ->
        let ryd = rydberg_for "ising-cycle" n in
        ( ryd.Rydberg.aais,
          targets_for
            (fun ~n ~j ~h -> Qturbo_models.Benchmarks.ising_cycle ~n ~j ~h ())
            n ))
  in
  let iontrap_series =
    warm_cold_series ~label:"iontrap ising-chain" ~make:(fun n ->
        let trap = iontrap_for n in
        ( trap.Iontrap.aais,
          targets_for
            (fun ~n ~j ~h -> Qturbo_models.Benchmarks.ising_chain ~n ~j ~h ())
            n ))
  in
  let mean_of series =
    List.fold_left (fun acc (_, _, _, s, _) -> acc +. s) 0.0 series
    /. float_of_int (List.length series)
  in
  let mean_speedup = mean_of series in
  let iontrap_mean_speedup = mean_of iontrap_series in
  (* persistent plan store: a cold *process* (simulated by clearing the
     in-memory caches) whose structural key is already on disk skips the
     whole front end.  Per size: store-off cold compile vs warm-store
     cold-process compile, asserted bitwise-identical. *)
  let store_dir =
    let f = Filename.temp_file "qturbo-bench-store" "" in
    Sys.remove f;
    f
  in
  let store_series =
    List.map
      (fun n ->
        let ryd = rydberg_for "ising-cycle" n in
        let target = static_target "ising-cycle" n in
        let compile () =
          C.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
        in
        CP.disable_store ();
        CP.clear_caches ();
        let cold_s, r_off = time_run compile in
        CP.enable_store ~dir:store_dir;
        CP.clear_caches ();
        ignore (compile ());
        (* the warm-store cold-process run being measured *)
        CP.clear_caches ();
        let store_s, r_on = time_run compile in
        CP.disable_store ();
        if not r_on.C.plan.C.store_hit then
          failwith (Printf.sprintf "store: n=%d expected a store hit" n);
        let bits x = Int64.bits_of_float x in
        let identical =
          Int64.equal (bits r_off.C.t_sim) (bits r_on.C.t_sim)
          && Array.length r_off.C.env = Array.length r_on.C.env
          && Array.for_all2
               (fun a b -> Int64.equal (bits a) (bits b))
               r_off.C.env r_on.C.env
        in
        if not identical then
          failwith
            (Printf.sprintf "store: n=%d result differs from store-off" n);
        let speedup = cold_s /. Float.max 1e-12 store_s in
        progress
          "plan: store n=%d cold %.3f s stored %.3f s speedup %.2fx" n cold_s
          store_s speedup;
        (n, cold_s, store_s, speedup))
      (sweep_sizes ())
  in
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat store_dir f))
       (Sys.readdir store_dir);
     Sys.rmdir store_dir
   with Sys_error _ -> ());
  let store_mean_speedup =
    List.fold_left (fun acc (_, _, _, s) -> acc +. s) 0.0 store_series
    /. float_of_int (List.length store_series)
  in
  progress "plan: store mean speedup %.2fx (target >= 1.5)" store_mean_speedup;
  (* large-N scaling: cold compiles on the auto-cutoff ising-cycle from
     n = 100 to n = 1000, with per-plan memory from Gc deltas and a
     fitted log-log exponent.  The quick series fits n = 300 and 1000:
     on a 2-CPU VM, a fit over 100 and 300 (cold compiles of a few ms)
     read 1.11–1.30 against its 1.3 target, so the CI gate failed about
     one run in four. *)
  let large_sizes =
    if !quick then [ 300; 1000 ] else [ 100; 200; 400; 700; 1000 ]
  in
  let large_ryd = large_cycle_ryd in
  let large_series =
    List.map
      (fun n ->
        let ryd = large_ryd n in
        let target = static_target "ising-cycle" n in
        (* one cold compile: empty caches and an empty key memo, so the
           key render is paid as in a fresh process *)
        let cold_compile () =
          CP.clear_caches ();
          let aais = Aais.without_key_memo ryd.Rydberg.aais in
          Gc.full_major ();
          let live0 = (Gc.stat ()).Gc.live_words in
          let alloc0 = Qturbo_util.Alloc.bytes () in
          let total_s, r =
            time_run (fun () -> C.compile ~aais ~target ~t_tar:1.0 ())
          in
          let allocated_mb = (Qturbo_util.Alloc.bytes () -. alloc0) /. 1e6 in
          Gc.full_major ();
          let live1 = (Gc.stat ()).Gc.live_words in
          (* live delta after a full major = the resident plan (cache
             still holds it) plus the AAIS kept alive by this frame *)
          let plan_live_mb =
            8.0 *. float_of_int (Int.max 0 (live1 - live0)) /. 1e6
          in
          (total_s, r, allocated_mb, plan_live_mb)
        in
        (* each point is the median of 21 cold compiles: with one, the
           fitted exponent moved by +-0.3 between runs, with three the
           quick gate still read 0.76-1.35 on one build, and with nine
           it read 1.32 in 1 of 17 runs *)
        let total_s, r, allocated_mb, plan_live_mb =
          List.nth
            (List.sort
               (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b)
               (List.init 21 (fun _ -> cold_compile ())))
            10
        in
        let kept, dropped =
          match ryd.Rydberg.aais.Aais.truncation with
          | Some tr -> (tr.Aais.kept_pairs, tr.Aais.dropped_pairs)
          | None -> (n * (n - 1) / 2, 0)
        in
        progress
          "plan: large-N n=%d cold %.3f s (build %.3f ms, solve %.3f ms) \
           alloc %.1f MB live %.1f MB pairs %d/%d"
          n total_s
          (1e3 *. r.C.plan.C.build_seconds)
          (1e3 *. r.C.plan.C.solve_seconds)
          allocated_mb plan_live_mb kept (kept + dropped);
        ( n,
          total_s,
          r.C.plan.C.build_seconds,
          r.C.plan.C.solve_seconds,
          allocated_mb,
          plan_live_mb,
          (kept, dropped) ))
      large_sizes
  in
  let large_exponent =
    let xs =
      Array.of_list
        (List.map (fun (n, _, _, _, _, _, _) -> log (float_of_int n))
           large_series)
    in
    let ys =
      Array.of_list (List.map (fun (_, t, _, _, _, _, _) -> log t) large_series)
    in
    if Array.length xs < 2 then Float.nan else fst (Stats.linear_fit xs ys)
  in
  (* The SimuQ baseline climbs its own ladder on the same devices, from
     sizes it finishes well inside its budget (n = 20 and 40), until it
     first fails inside the budget.  Started at the large-N sizes, it
     only ever timed out. *)
  let simuq_budget = if !quick then 10.0 else 60.0 in
  let simuq_sizes =
    if !quick then [ 20; 40 ] else [ 20; 40; 60; 80; 100; 200; 400 ]
  in
  let simuq_series =
    let alive = ref true in
    List.filter_map
      (fun n ->
        if not !alive then None
        else begin
          let s =
            simuq_point ~budget:simuq_budget ~name:"plan-large"
              ~aais:(large_ryd n).Rydberg.aais
              ~target:(static_target "ising-cycle" n) ~t_tar:1.0 ~n ()
          in
          let ok = Float.is_finite s.rel_err in
          alive := ok;
          progress "plan: large-N simuq n=%d %s %.1f s" n
            (if ok then "compiled in" else "FAILED after")
            s.compile_s;
          Some (n, s.compile_s, ok)
        end)
      simuq_sizes
  in
  let simuq_max_n =
    List.fold_left (fun acc (n, _, ok) -> if ok then n else acc) 0 simuq_series
  in
  let simuq_timeout_n =
    List.fold_left
      (fun acc (n, _, ok) -> if acc = 0 && not ok then n else acc)
      0 simuq_series
  in
  progress
    "plan: large-N fitted exponent %.2f (target <= 1.3); simuq max n=%d%s"
    large_exponent simuq_max_n
    (if simuq_timeout_n > 0 then
       Printf.sprintf ", first timeout at n=%d" simuq_timeout_n
     else "");
  let oc = open_out "BENCH_plan.json" in
  Printf.fprintf oc
    "{\n\
    \  \"front_end_share\": [\n%s\n\
    \  ],\n\
    \  \"warm_vs_cold\": {\n\
    \    \"benchmark\": \"ising-cycle\",\n\
    \    \"instances_per_size\": %d,\n\
    \    \"mean_speedup\": %.4f,\n\
    \    \"target_speedup\": 1.25,\n\
    \    \"series\": [\n%s\n\
    \    ]\n\
    \  },\n\
    \  \"iontrap_warm_vs_cold\": {\n\
    \    \"benchmark\": \"ising-chain\",\n\
    \    \"instances_per_size\": %d,\n\
    \    \"mean_speedup\": %.4f,\n\
    \    \"target_speedup\": 1.25,\n\
    \    \"series\": [\n%s\n\
    \    ]\n\
    \  },\n\
    \  \"store\": {\n\
    \    \"benchmark\": \"ising-cycle\",\n\
    \    \"mean_speedup\": %.4f,\n\
    \    \"target_speedup\": 1.5,\n\
    \    \"bitwise_identical\": true,\n\
    \    \"series\": [\n%s\n\
    \    ]\n\
    \  },\n\
    \  \"large_n\": {\n\
    \    \"benchmark\": \"ising-cycle\",\n\
    \    \"cutoff\": \"auto\",\n\
    \    \"fitted_exponent\": %.4f,\n\
    \    \"target_exponent\": 1.3,\n\
    \    \"simuq_budget_seconds\": %.1f,\n\
    \    \"simuq_max_n\": %d,\n\
    \    \"simuq_first_timeout_n\": %d,\n\
    \    \"simuq_series\": [\n%s\n\
    \    ],\n\
    \    \"series\": [\n%s\n\
    \    ]\n\
    \  }\n\
     }\n"
    (String.concat ",\n"
       (List.map
          (fun (n, b, s, total, pct) ->
            Printf.sprintf
              "    {\"benchmark\": \"ising-chain\", \"n\": %d, \
               \"build_seconds\": %.6f, \"solve_seconds\": %.6f, \
               \"total_seconds\": %.6f, \"front_end_percent\": %.2f}"
              n b s total pct)
          share))
    k mean_speedup
    (String.concat ",\n"
       (List.map
          (fun (n, cold_s, warm_s, speedup, hits) ->
            Printf.sprintf
              "      {\"n\": %d, \"cold_seconds\": %.6f, \"warm_seconds\": \
               %.6f, \"speedup\": %.4f, \"warm_cache_hits\": %d}"
              n cold_s warm_s speedup hits)
          series))
    k iontrap_mean_speedup
    (String.concat ",\n"
       (List.map
          (fun (n, cold_s, warm_s, speedup, hits) ->
            Printf.sprintf
              "      {\"n\": %d, \"cold_seconds\": %.6f, \"warm_seconds\": \
               %.6f, \"speedup\": %.4f, \"warm_cache_hits\": %d}"
              n cold_s warm_s speedup hits)
          iontrap_series))
    store_mean_speedup
    (String.concat ",\n"
       (List.map
          (fun (n, cold_s, store_s, speedup) ->
            Printf.sprintf
              "      {\"n\": %d, \"cold_seconds\": %.6f, \"store_seconds\": \
               %.6f, \"speedup\": %.4f}"
              n cold_s store_s speedup)
          store_series))
    large_exponent simuq_budget simuq_max_n simuq_timeout_n
    (String.concat ",\n"
       (List.map
          (fun (n, seconds, ok) ->
            Printf.sprintf
              "      {\"n\": %d, \"seconds\": %.3f, \"success\": %b}" n
              seconds ok)
          simuq_series))
    (String.concat ",\n"
       (List.map
          (fun (n, total, b, s, alloc_mb, live_mb, (kept, dropped)) ->
            Printf.sprintf
              "      {\"n\": %d, \"total_seconds\": %.6f, \"build_seconds\": \
               %.6f, \"solve_seconds\": %.6f, \"allocated_mb\": %.2f, \
               \"plan_live_mb\": %.2f, \"kept_pairs\": %d, \"dropped_pairs\": \
               %d}"
              n total b s alloc_mb live_mb kept dropped)
          large_series));
  close_out oc;
  progress
    "plan: wrote BENCH_plan.json (mean warm speedup %.2fx, iontrap %.2fx)"
    mean_speedup iontrap_mean_speedup

(* ------------------------------------------------------------------ *)
(* batch sweeps: Compiler.compile_batch over the Fig. 3 ising-cycle    *)
(* coefficient series versus the same jobs compiled one at a time.     *)
(* Results land in BENCH_sweep.json. *)

let sweep () =
  let module C = Qturbo_core.Compiler in
  let module CP = Qturbo_core.Compile_plan in
  let domains = Qturbo_par.Pool.default_domains () in
  let k = if !quick then 8 else 16 in
  let jobs_for ?(k = k) n =
    List.init k (fun i ->
        let j = 0.2 +. (0.11 *. float_of_int i)
        and h = 0.45 +. (0.07 *. float_of_int i) in
        let target =
          Qturbo_pauli.Pauli_sum.drop_identity
            (Qturbo_models.Model.hamiltonian_at
               (Qturbo_models.Benchmarks.ising_cycle ~n ~j ~h ())
               ~s:0.0)
        in
        (target, 0.5 +. (0.1 *. float_of_int i)))
  in
  let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let sizes = if !quick then [ 3; 13 ] else [ 3; 13; 23; 43 ] in
  let batch_series ~label ~make =
    List.map
      (fun n ->
        let aais, jobs = make n in
        (* cold sequential: each job compiled on its own with the plan
           cache off — the pre-batch workflow, one front-end build per
           job *)
        let cold_s, _ =
          time_run (fun () ->
              List.map
                (fun (target, t_tar) ->
                  C.compile
                    ~options:{ C.default_options with C.plan_cache = false }
                    ~aais ~target ~t_tar ())
                jobs)
        in
        (* warm sequential: the shared cache builds the plan once, but
           the solves still run one after another *)
        CP.clear_caches ();
        let warm_s, warm =
          time_run (fun () ->
              List.map
                (fun (target, t_tar) -> C.compile ~aais ~target ~t_tar ())
                jobs)
        in
        (* batch: one plan build, solves fanned out over the pool *)
        CP.clear_caches ();
        let batch_s, batch =
          time_run (fun () -> C.compile_batch ~batch_domains:domains ~aais jobs)
        in
        let identical =
          List.for_all2
            (fun (a : C.result) (b : C.result) ->
              bits_eq a.C.t_sim b.C.t_sim
              && bits_eq a.C.relative_error b.C.relative_error)
            warm batch
        in
        let hits = (List.nth batch (k - 1)).C.plan.C.cache_hits in
        let speedup = cold_s /. Float.max 1e-12 batch_s in
        let warm_speedup = warm_s /. Float.max 1e-12 batch_s in
        progress
          "sweep: %s n=%d jobs=%d cold %.3f s warm %.3f s batch %.3f s \
           speedup %.2fx (%d hits, identical %b)"
          label n k cold_s warm_s batch_s speedup hits identical;
        (n, cold_s, warm_s, batch_s, speedup, warm_speedup, hits, identical))
      sizes
  in
  let series =
    batch_series ~label:"ising-cycle" ~make:(fun n ->
        let ryd = rydberg_for "ising-cycle" n in
        (ryd.Rydberg.aais, jobs_for n))
  in
  let iontrap_jobs_for n =
    List.init k (fun i ->
        let j = 0.2 +. (0.11 *. float_of_int i)
        and h = 0.45 +. (0.07 *. float_of_int i) in
        let target =
          Qturbo_pauli.Pauli_sum.drop_identity
            (Qturbo_models.Model.hamiltonian_at
               (Qturbo_models.Benchmarks.ising_chain ~n ~j ~h ())
               ~s:0.0)
        in
        (target, 0.5 +. (0.1 *. float_of_int i)))
  in
  let iontrap_series =
    batch_series ~label:"iontrap ising-chain" ~make:(fun n ->
        let trap = iontrap_for n in
        (trap.Iontrap.aais, iontrap_jobs_for n))
  in
  let mean_of series =
    List.fold_left (fun acc (_, _, _, _, s, _, _, _) -> acc +. s) 0.0 series
    /. float_of_int (List.length series)
  in
  let mean_speedup = mean_of series in
  let iontrap_mean_speedup = mean_of iontrap_series in
  (* large-N sweeps on the auto-cutoff device: fewer jobs per size (the
     point is the scaling of the shared-plan batch, not the fan-out) *)
  let large_k = 4 in
  let large_sizes = if !quick then [ 100 ] else [ 100; 400; 1000 ] in
  let large_series =
    List.map
      (fun n ->
        let ryd = large_cycle_ryd n in
        let jobs = jobs_for ~k:large_k n in
        CP.clear_caches ();
        let warm_s, warm =
          time_run (fun () ->
              List.map
                (fun (target, t_tar) ->
                  C.compile ~aais:ryd.Rydberg.aais ~target ~t_tar ())
                jobs)
        in
        CP.clear_caches ();
        let batch_s, batch =
          time_run (fun () ->
              C.compile_batch ~batch_domains:domains ~aais:ryd.Rydberg.aais
                jobs)
        in
        let identical =
          List.for_all2
            (fun (a : C.result) (b : C.result) ->
              bits_eq a.C.t_sim b.C.t_sim
              && bits_eq a.C.relative_error b.C.relative_error)
            warm batch
        in
        progress
          "sweep: large-N ising-cycle n=%d jobs=%d warm %.3f s batch %.3f s \
           (identical %b)"
          n large_k warm_s batch_s identical;
        (n, warm_s, batch_s, identical))
      large_sizes
  in
  let large_exponent =
    if List.length large_series < 2 then Float.nan
    else
      let xs =
        Array.of_list
          (List.map (fun (n, _, _, _) -> log (float_of_int n)) large_series)
      in
      let ys =
        Array.of_list (List.map (fun (_, _, b, _) -> log b) large_series)
      in
      fst (Stats.linear_fit xs ys)
  in
  let oc = open_out "BENCH_sweep.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"ising-cycle\",\n\
    \  \"jobs_per_size\": %d,\n\
    \  \"batch_domains\": %d,\n\
    \  \"target_speedup\": 1.5,\n\
    \  \"mean_speedup\": %.4f,\n\
    \  \"series\": [\n%s\n\
    \  ],\n\
    \  \"iontrap\": {\n\
    \    \"benchmark\": \"ising-chain\",\n\
    \    \"jobs_per_size\": %d,\n\
    \    \"mean_speedup\": %.4f,\n\
    \    \"series\": [\n%s\n\
    \    ]\n\
    \  },\n\
    \  \"large_n\": {\n\
    \    \"cutoff\": \"auto\",\n\
    \    \"jobs_per_size\": %d,\n\
    \    \"batch_fitted_exponent\": %s,\n\
    \    \"series\": [\n%s\n\
    \    ]\n\
    \  }\n\
     }\n"
    k domains mean_speedup
    (String.concat ",\n"
       (List.map
          (fun (n, cold_s, warm_s, batch_s, speedup, warm_speedup, hits,
                identical) ->
            Printf.sprintf
              "    {\"n\": %d, \"sequential_seconds\": %.6f, \
               \"warm_sequential_seconds\": %.6f, \"batch_seconds\": %.6f, \
               \"speedup\": %.4f, \"warm_speedup\": %.4f, \"cache_hits\": \
               %d, \"bitwise_identical\": %b}"
              n cold_s warm_s batch_s speedup warm_speedup hits identical)
          series))
    k iontrap_mean_speedup
    (String.concat ",\n"
       (List.map
          (fun (n, cold_s, warm_s, batch_s, speedup, warm_speedup, hits,
                identical) ->
            Printf.sprintf
              "      {\"n\": %d, \"sequential_seconds\": %.6f, \
               \"warm_sequential_seconds\": %.6f, \"batch_seconds\": %.6f, \
               \"speedup\": %.4f, \"warm_speedup\": %.4f, \"cache_hits\": \
               %d, \"bitwise_identical\": %b}"
              n cold_s warm_s batch_s speedup warm_speedup hits identical)
          iontrap_series))
    large_k
    (if Float.is_nan large_exponent then "null"
     else Printf.sprintf "%.4f" large_exponent)
    (String.concat ",\n"
       (List.map
          (fun (n, warm_s, batch_s, identical) ->
            Printf.sprintf
              "      {\"n\": %d, \"warm_sequential_seconds\": %.6f, \
               \"batch_seconds\": %.6f, \"bitwise_identical\": %b}"
              n warm_s batch_s identical)
          large_series));
  close_out oc;
  progress
    "sweep: wrote BENCH_sweep.json (mean speedup %.2fx, iontrap %.2fx)"
    mean_speedup iontrap_mean_speedup

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("ablations", ablations);
    ("analysis", analysis);
    ("parallel", parallel);
    ("plan", plan);
    ("sweep", sweep);
    ("robustness", robustness);
    ("ext-noise", ext_noise);
    ("ext-markovian", ext_markovian);
    ("ext-digital", ext_digital);
    ("ext-segments", ext_segments);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> (name, f)
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" name
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf "QTurbo benchmark harness%s\n"
    (if !quick then " (quick mode)" else "");
  List.iter
    (fun (name, f) ->
      progress "=== running %s ===" name;
      f ())
    selected
