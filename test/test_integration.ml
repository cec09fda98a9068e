(* Cross-module integration tests: the paper's worked example as a golden
   test, end-to-end compile → pulse → evolve pipelines for both AAIS
   backends, all Table-2 benchmarks through the compiler, and the
   paper-level qualitative claims at test-sized instances. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core

let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.10g vs %.10g" msg a b

let static_ham model = Qturbo_models.Model.hamiltonian_at model ~s:0.0

(* ---- The §4–§6 worked example, asserted against every number the paper
   quotes ---- *)

let test_golden_worked_example () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let target = static_ham (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let env = r.Compiler.env in
  (* §5.1: bottleneck T_sim = 0.8 µs (Rabi at max 2.5 MHz) *)
  check_close "T_sim = 0.8" 1e-9 0.8 r.Compiler.t_sim;
  (* §5.2: positions 0, 7.46, 14.92 µm (Eq. 8) *)
  let positions = Rydberg.positions ryd ~env in
  check_close "x1 = 0" 1e-9 0.0 (fst positions.(0));
  check_close "x2 = 7.46" 0.05 7.46 (Float.abs (fst positions.(1)));
  check_close "x3 = 14.92" 0.1 14.92 (Float.abs (fst positions.(2)));
  (* §5.1: Ω at the device maximum, φ = 0 *)
  Array.iter
    (fun v -> check_close "omega = 2.5" 1e-6 2.5 env.(v.Variable.id))
    ryd.Rydberg.omegas;
  Array.iter
    (fun v -> check_close "phi = 0" 1e-9 0.0 env.(v.Variable.id))
    ryd.Rydberg.phis;
  (* §6.2: refined detunings Δ1 = Δ3 ≈ 2.55, Δ2 ≈ 5.0 MHz *)
  let d0 = env.(ryd.Rydberg.deltas.(0).Variable.id) in
  let d1 = env.(ryd.Rydberg.deltas.(1).Variable.id) in
  let d2 = env.(ryd.Rydberg.deltas.(2).Variable.id) in
  Alcotest.(check bool) "delta1 refined into [2.5, 2.6]" true (d0 >= 2.5 && d0 <= 2.6);
  check_close "delta2 = 5.0" 0.02 5.0 d1;
  check_close "delta symmetric" 1e-6 d0 d2;
  (* §6.1: the total error respects Theorem 1 *)
  Alcotest.(check bool) "theorem 1" true
    (r.Compiler.theorem1_bound >= r.Compiler.error_l1)

(* ---- compile → pulse → evolve: the compiled pulse really implements the
   target evolution ---- *)

let fidelity_of_pulse ~n ~target ~t_tar pulse =
  let th =
    Qturbo_quantum.Evolve.evolve ~h:(Pauli_sum.drop_identity target) ~t:t_tar
      (Qturbo_quantum.State.ground ~n)
  in
  let sim =
    Qturbo_quantum.Evolve.evolve_piecewise
      ~segments:(Pulse.rydberg_segment_hamiltonians pulse)
      (Qturbo_quantum.State.ground ~n)
  in
  Qturbo_quantum.State.fidelity th sim

let test_end_to_end_rydberg_dynamics () =
  let spec = Device.aquila_fig6a in
  let n = 4 in
  let ryd = Rydberg.build ~spec ~n in
  let target = static_ham (Qturbo_models.Benchmarks.ising_cycle ~n ~j:0.157 ~h:0.785 ()) in
  let t_tar = 0.8 in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar () in
  let pulse = Extract.rydberg_pulse ryd ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
  let f = fidelity_of_pulse ~n ~target ~t_tar pulse in
  Alcotest.(check bool) "pulse reproduces the target state" true (f > 0.995);
  Alcotest.(check bool) "and is shorter than the target evolution" true
    (Pulse.rydberg_duration pulse < t_tar)

let test_end_to_end_heisenberg_dynamics () =
  let n = 3 in
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n in
  let target = static_ham (Qturbo_models.Benchmarks.heisenberg_chain ~n ()) in
  let t_tar = 0.7 in
  let r = Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar () in
  let pulse = Extract.heisenberg_pulse heis ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
  let th =
    Qturbo_quantum.Evolve.evolve ~h:(Pauli_sum.drop_identity target) ~t:t_tar
      (Qturbo_quantum.State.ground ~n)
  in
  let sim =
    Qturbo_quantum.Evolve.evolve_piecewise
      ~segments:(Pulse.heisenberg_segment_hamiltonians pulse)
      (Qturbo_quantum.State.ground ~n)
  in
  Alcotest.(check bool) "exact backend, near-perfect fidelity" true
    (Qturbo_quantum.State.fidelity th sim > 0.9999)

let test_time_dependent_end_to_end () =
  (* MIS-chain anneal: compare the compiled piecewise pulse against the
     exact time-dependent evolution *)
  let spec = { Device.aquila_paper with Device.max_extent = 1e6 } in
  let n = 3 in
  let ryd = Rydberg.build ~spec ~n in
  let model = Qturbo_models.Benchmarks.mis_chain ~u:1.0 ~omega:1.0 ~alpha:1.0 ~n () in
  let t_tar = 1.0 in
  let segments = 6 in
  let td = Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar ~segments () in
  let pulse =
    Extract.rydberg_pulse_segments ryd
      ~segments:
        (List.map
           (fun (s : Td_compiler.segment_result) ->
             (s.Td_compiler.env, s.Td_compiler.duration))
           td.Td_compiler.segments)
  in
  let exact =
    Qturbo_quantum.Evolve.evolve_time_dependent
      ~h_of_t:(fun t ->
        Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at model ~s:(t /. t_tar)))
      ~t:t_tar ~steps:800
      (Qturbo_quantum.State.ground ~n)
  in
  let sim =
    Qturbo_quantum.Evolve.evolve_piecewise
      ~segments:(Pulse.rydberg_segment_hamiltonians pulse)
      (Qturbo_quantum.State.ground ~n)
  in
  let f = Qturbo_quantum.State.fidelity exact sim in
  Alcotest.(check bool) "anneal tracked (discretization-limited)" true (f > 0.98)

(* ---- every Table-2 benchmark through its natural backend ---- *)

let relaxed = { Device.aquila_paper with Device.max_extent = 1e6 }

let test_all_rydberg_benchmarks_compile () =
  List.iter
    (fun name ->
      let model = Qturbo_models.Benchmarks.by_name ~name ~n:7 in
      (* cycle couplings need planar atom layouts *)
      let spec =
        match name with
        | "ising-cycle" | "ising-cycle+" -> Device.with_geometry Device.Plane relaxed
        | _ -> relaxed
      in
      let ryd = Rydberg.build ~spec ~n:7 in
      let r =
        Compiler.compile ~aais:ryd.Rydberg.aais
          ~target:(Pauli_sum.drop_identity (static_ham model))
          ~t_tar:1.0 ()
      in
      if r.Compiler.relative_error > 5.0 then
        Alcotest.failf "%s: relative error %.2f%%" name r.Compiler.relative_error;
      if r.Compiler.t_sim <= 0.0 then Alcotest.failf "%s: bad T" name)
    [ "ising-chain"; "ising-cycle"; "kitaev"; "ising-cycle+"; "pxp" ]

let test_all_heisenberg_benchmarks_exact () =
  List.iter
    (fun name ->
      let model = Qturbo_models.Benchmarks.by_name ~name ~n:6 in
      let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:6 in
      let r =
        Compiler.compile ~aais:heis.Heisenberg.aais
          ~target:(Pauli_sum.drop_identity (static_ham model))
          ~t_tar:1.0 ()
      in
      if r.Compiler.error_l1 > 1e-9 then
        Alcotest.failf "%s: error %.3g (expected exact)" name r.Compiler.error_l1)
    [ "ising-chain"; "kitaev"; "heis-chain" ]

(* the Heisenberg AAIS has chain connectivity only: a cycle's wrap-around
   coupling is unreachable and must surface as error, not a crash *)
let test_heisenberg_cycle_unreachable_edge () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:5 in
  let target = static_ham (Qturbo_models.Benchmarks.ising_cycle ~n:5 ()) in
  (* compilation rejects the missing wrap coupling up front with the
     coverage diagnostic *)
  (match Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar:1.0 () with
  | exception Qturbo_analysis.Diagnostic.Rejected ds ->
      Alcotest.(check bool) "QT001 on the wrap edge" true
        (List.exists (fun d -> d.Qturbo_analysis.Diagnostic.code = "QT001") ds)
  | _ -> Alcotest.fail "the compile should reject the chain device");
  (* ... and the ring device fixes it *)
  let ring =
    Heisenberg.build ~spec:{ Device.heisenberg_default with Device.ring = true } ~n:5
  in
  let r' = Compiler.compile ~aais:ring.Heisenberg.aais ~target ~t_tar:1.0 () in
  check_close "ring exact" 1e-9 0.0 r'.Compiler.error_l1

(* ---- ising-cycle+ is van-der-Waals native: the tails help rather than
   hurt ---- *)

let test_ising_cycle_plus_low_error () =
  let n = 8 in
  let ryd = Rydberg.build ~spec:relaxed ~n in
  let plain =
    Compiler.compile ~aais:ryd.Rydberg.aais
      ~target:(static_ham (Qturbo_models.Benchmarks.ising_cycle ~n ()))
      ~t_tar:1.0 ()
  in
  let ryd2 = Rydberg.build ~spec:relaxed ~n in
  let plus =
    Compiler.compile ~aais:ryd2.Rydberg.aais
      ~target:(static_ham (Qturbo_models.Benchmarks.ising_cycle_plus ~n ()))
      ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "nnn-matched model compiles more accurately" true
    (plus.Compiler.relative_error < plain.Compiler.relative_error)

(* ---- mapping case study (Fig. 5a in miniature) ---- *)

let test_mapping_case_study () =
  (* a shuffled chain must compile as well as the natural ordering once
     the greedy mapping runs *)
  let n = 6 in
  let natural = static_ham (Qturbo_models.Benchmarks.ising_chain ~n ()) in
  let shuffle = Mapping.of_array [| 3; 0; 4; 1; 5; 2 |] in
  let shuffled = Mapping.apply shuffle natural in
  let m = Mapping.greedy_chain ~target:shuffled ~n in
  let remapped = Mapping.apply m shuffled in
  let ryd = Rydberg.build ~spec:relaxed ~n in
  let r_direct = Compiler.compile ~aais:ryd.Rydberg.aais ~target:natural ~t_tar:1.0 () in
  let ryd2 = Rydberg.build ~spec:relaxed ~n in
  let r_mapped = Compiler.compile ~aais:ryd2.Rydberg.aais ~target:remapped ~t_tar:1.0 () in
  check_close "same T after mapping" 1e-6 r_direct.Compiler.t_sim r_mapped.Compiler.t_sim;
  check_close "same error after mapping" 0.05 r_direct.Compiler.relative_error
    r_mapped.Compiler.relative_error

(* ---- paper-level claims in miniature: QTurbo vs the baseline ---- *)

let test_paper_claims_small () =
  let n = 8 in
  let ryd = Rydberg.build ~spec:relaxed ~n in
  let target = static_ham (Qturbo_models.Benchmarks.ising_chain ~n ()) in
  let q = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let s =
    Qturbo_simuq.Simuq_compiler.compile
      ~options:
        {
          Qturbo_simuq.Simuq_compiler.default_options with
          Qturbo_simuq.Simuq_compiler.time_budget_seconds = 30.0;
        }
      ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "baseline succeeded" true s.Qturbo_simuq.Simuq_compiler.success;
  Alcotest.(check bool) "shorter pulse" true
    (q.Compiler.t_sim < s.Qturbo_simuq.Simuq_compiler.t_sim);
  Alcotest.(check bool) "lower error" true
    (q.Compiler.relative_error < s.Qturbo_simuq.Simuq_compiler.relative_error)

(* ---- noisy emulation favours the shorter pulse (Fig. 6 in miniature) ---- *)

let test_fig6_mechanism_miniature () =
  let spec = Device.aquila_fig6a in
  let n = 4 in
  let ryd = Rydberg.build ~spec ~n in
  let target = static_ham (Qturbo_models.Benchmarks.ising_cycle ~n ~j:0.157 ~h:0.785 ()) in
  let t_tar = 1.0 in
  let q = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar () in
  let q_pulse = Extract.rydberg_pulse ryd ~env:q.Compiler.env ~t_sim:q.Compiler.t_sim in
  let s =
    Qturbo_simuq.Simuq_compiler.compile
      ~options:
        {
          Qturbo_simuq.Simuq_compiler.default_options with
          Qturbo_simuq.Simuq_compiler.t_max = 4.0;
          time_budget_seconds = 30.0;
        }
      ~aais:ryd.Rydberg.aais ~target ~t_tar ()
  in
  Alcotest.(check bool) "baseline ok" true s.Qturbo_simuq.Simuq_compiler.success;
  let s_pulse =
    Extract.rydberg_pulse ryd ~env:s.Qturbo_simuq.Simuq_compiler.env
      ~t_sim:s.Qturbo_simuq.Simuq_compiler.t_sim
  in
  Alcotest.(check bool) "baseline pulse longer" true
    (Pulse.rydberg_duration s_pulse > Pulse.rydberg_duration q_pulse);
  (* coherent noise only: isolate the pulse-length mechanism *)
  let noise =
    { Qturbo_device_noise.Noise_model.ideal with
      Qturbo_device_noise.Noise_model.delta_sigma = 0.8 }
  in
  let th =
    Qturbo_quantum.Observable.z_avg
      (Qturbo_quantum.Evolve.evolve ~h:(Pauli_sum.drop_identity target) ~t:t_tar
         (Qturbo_quantum.State.ground ~n))
  in
  let err pulse seed =
    let rng = Qturbo_util.Rng.create ~seed in
    let o =
      Qturbo_device_noise.Emulator.run ~rng ~noise ~shots:400 ~trajectories:16
        ~pulse ()
    in
    Float.abs (o.Qturbo_device_noise.Emulator.z_avg -. th)
  in
  let avg p = (err p 21L +. err p 22L +. err p 23L) /. 3.0 in
  Alcotest.(check bool) "qturbo pulse closer to theory under noise" true
    (avg q_pulse < avg s_pulse)

let () =
  Alcotest.run "integration"
    [
      ( "golden",
        [ Alcotest.test_case "paper worked example (§4–§6)" `Quick test_golden_worked_example ] );
      ( "end_to_end",
        [
          Alcotest.test_case "rydberg dynamics" `Slow test_end_to_end_rydberg_dynamics;
          Alcotest.test_case "heisenberg dynamics" `Quick test_end_to_end_heisenberg_dynamics;
          Alcotest.test_case "time-dependent anneal" `Slow test_time_dependent_end_to_end;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "rydberg suite compiles" `Slow test_all_rydberg_benchmarks_compile;
          Alcotest.test_case "heisenberg suite exact" `Quick test_all_heisenberg_benchmarks_exact;
          Alcotest.test_case "unreachable cycle edge" `Quick test_heisenberg_cycle_unreachable_edge;
          Alcotest.test_case "ising-cycle+ tail-native" `Slow test_ising_cycle_plus_low_error;
        ] );
      ( "paper_claims",
        [
          Alcotest.test_case "mapping case study" `Quick test_mapping_case_study;
          Alcotest.test_case "qturbo beats baseline" `Slow test_paper_claims_small;
          Alcotest.test_case "fig6 mechanism" `Slow test_fig6_mechanism_miniature;
        ] );
    ]
