(* Tests for pulse serialization (roundtrips, error reporting) and the
   independent result verifier. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core

let sample_pulse () =
  {
    Pulse.spec = Device.aquila_fig6a;
    positions = [| (0.0, 0.0); (9.25, -1.5); (18.5, 0.75) |];
    segments =
      [
        {
          Pulse.duration = 0.25;
          omega = [| 6.28; 6.28; 6.28 |];
          phi = [| 0.0; 0.1; -0.1 |];
          delta = [| 1.5; -2.5; 0.0 |];
        };
        {
          Pulse.duration = 0.125;
          omega = [| 3.0; 3.0; 3.0 |];
          phi = [| 0.0; 0.0; 0.0 |];
          delta = [| 0.0; 0.0; 0.0 |];
        };
      ];
  }

let pulses_equal (a : Pulse.rydberg) (b : Pulse.rydberg) =
  a.Pulse.spec = b.Pulse.spec
  && a.Pulse.positions = b.Pulse.positions
  && a.Pulse.segments = b.Pulse.segments

let test_roundtrip () =
  let p = sample_pulse () in
  match Pulse_io.of_string (Pulse_io.to_string p) with
  | Ok p' -> Alcotest.(check bool) "identical" true (pulses_equal p p')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_roundtrip_exact_floats () =
  (* awkward values must survive the text roundtrip bit-exactly *)
  let p = sample_pulse () in
  let p =
    {
      p with
      Pulse.positions = [| (0.1 +. 0.2, 1.0 /. 3.0); (Float.pi, -0.0); (1e-300, 2.5) |];
    }
  in
  match Pulse_io.of_string (Pulse_io.to_string p) with
  | Ok p' -> Alcotest.(check bool) "bit exact" true (p.Pulse.positions = p'.Pulse.positions)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_save_load () =
  let path = Filename.temp_file "qturbo" ".pulse" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let p = sample_pulse () in
      Pulse_io.save ~path p;
      match Pulse_io.load ~path with
      | Ok p' -> Alcotest.(check bool) "file roundtrip" true (pulses_equal p p')
      | Error msg -> Alcotest.failf "load failed: %s" msg)

let expect_error text =
  match Pulse_io.of_string text with
  | Ok _ -> Alcotest.fail "bad input accepted"
  | Error _ -> ()

let test_parse_errors () =
  expect_error "";
  expect_error "not-a-pulse";
  expect_error "rydberg-pulse v1\ndevice d\nbogus";
  (* truncated after the atoms header *)
  expect_error "rydberg-pulse v1\ndevice d\nspec 1.0 1.0 1.0 1.0 1.0 1.0 global line\natoms 2\natom 0 0x0p+0 0x0p+0"

let test_parse_rejects_wrong_channel_arity () =
  let p = sample_pulse () in
  let text = Pulse_io.to_string p in
  (* drop one omega value from the first segment line *)
  let mangled =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           if String.length line > 6 && String.sub line 0 6 = "omega " then
             String.sub line 0 (String.rindex line ' ')
           else line)
    |> String.concat "\n"
  in
  expect_error mangled

let test_compiled_pulse_roundtrip () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) ~s:0.0
  in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let pulse = Extract.rydberg_pulse ryd ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
  match Pulse_io.of_string (Pulse_io.to_string pulse) with
  | Ok p' ->
      Alcotest.(check bool) "compiled pulse roundtrips" true (pulses_equal pulse p');
      Alcotest.(check (list string)) "still executable" [] (Pulse.within_limits p')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* ---- Verifier ---- *)

let test_verifier_accepts_good_compilation () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) ~s:0.0
  in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let v = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  Alcotest.(check bool) "executable" true v.Verifier.executable;
  Alcotest.(check bool) "consistent with compiler metric" true
    v.Verifier.consistent_with_compiler;
  Alcotest.(check bool) "small relative error" true (v.Verifier.relative_error < 1.0)

let test_verifier_detects_tampering () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) ~s:0.0
  in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  (* sabotage a Rabi amplitude *)
  let env = Array.copy r.Compiler.env in
  env.(ryd.Rydberg.omegas.(0).Qturbo_aais.Variable.id) <- 0.5;
  let v =
    Verifier.verify_rydberg ryd ~target ~t_tar:1.0 { r with Compiler.env }
  in
  Alcotest.(check bool) "inconsistency flagged" false v.Verifier.consistent_with_compiler;
  Alcotest.(check bool) "error grew" true (v.Verifier.error_l1 > r.Compiler.error_l1 +. 0.1)

let test_verifier_detects_limit_violation () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) ~s:0.0
  in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  (* move two atoms within the forbidden separation *)
  let env = Array.copy r.Compiler.env in
  env.(ryd.Rydberg.xs.(1).Qturbo_aais.Variable.id) <- 1.0;
  let v = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 { r with Compiler.env } in
  Alcotest.(check bool) "not executable" false v.Verifier.executable;
  Alcotest.(check bool) "violation listed" true (v.Verifier.violations <> [])

let test_verifier_heisenberg_exact () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:4 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.kitaev ~n:4 ()) ~s:0.0
  in
  let r = Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar:1.0 () in
  let v = Verifier.verify_heisenberg heis ~target ~t_tar:1.0 r in
  Alcotest.(check bool) "executable" true v.Verifier.executable;
  Alcotest.(check (float 1e-9)) "exact" 0.0 v.Verifier.error_l1;
  Alcotest.(check bool) "consistent" true v.Verifier.consistent_with_compiler

let test_verifier_heisenberg_flags_overtime () =
  let heis = Heisenberg.build ~spec:{ Device.heisenberg_default with Device.max_time = 0.5 } ~n:3 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) ~s:0.0
  in
  (* two-qubit bound 1.0 forces T = 1.0 > max_time 0.5 *)
  let r = Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar:1.0 () in
  let v = Verifier.verify_heisenberg heis ~target ~t_tar:1.0 r in
  Alcotest.(check bool) "overtime flagged" false v.Verifier.executable

(* ---- Verifier: the streamed comparison against a map-built oracle ---- *)

(* The oracle is the verifier's computation before it streamed: the
   physical Rydberg Hamiltonian accumulated term by term into a
   [Pauli_sum] map, then [scale] / [sub] / [norm1]. *)
let oracle_rydberg ?cutoff_radius ~spec ~positions ~omega ~phi ~delta () =
  let n = Array.length positions in
  let keep =
    match cutoff_radius with
    | None -> fun _ -> true
    | Some r -> fun d2 -> d2 <= r *. r
  in
  let h = ref Pauli_sum.zero in
  let add c s = h := Pauli_sum.add_term !h s c in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let xi, yi = positions.(i) and xj, yj = positions.(j) in
      let d2 = ((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0) in
      if keep d2 then begin
        let a = spec.Device.c6 /. (4.0 *. (d2 ** 3.0)) in
        add a (Pauli_string.two i Pauli.Z j Pauli.Z);
        add (-.a) (Pauli_string.single i Pauli.Z);
        add (-.a) (Pauli_string.single j Pauli.Z)
      end
    done;
    add (delta.(i) /. 2.0) (Pauli_string.single i Pauli.Z);
    add (omega.(i) /. 2.0 *. cos phi.(i)) (Pauli_string.single i Pauli.X);
    add (-.(omega.(i) /. 2.0) *. sin phi.(i)) (Pauli_string.single i Pauli.Y)
  done;
  !h

let oracle_compare ~h_sim ~t_sim ~target ~t_tar =
  let b_sim = Pauli_sum.scale t_sim (Pauli_sum.drop_identity h_sim) in
  let b_tar = Pauli_sum.scale t_tar (Pauli_sum.drop_identity target) in
  let diff = Pauli_sum.sub b_sim b_tar in
  let error_l1 = Pauli_sum.norm1 diff in
  let max_term_error =
    List.fold_left
      (fun acc (_, c) -> Float.max acc (Float.abs c))
      0.0 (Pauli_sum.terms diff)
  in
  let b_norm = Pauli_sum.norm1 b_tar in
  let relative_error =
    if b_norm > 0.0 then error_l1 /. b_norm *. 100.0 else 0.0
  in
  (error_l1, relative_error, max_term_error)

let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_terms a b =
  List.equal
    (fun (s, c) (s', c') -> Pauli_string.equal s s' && same_float c c')
    a b

let result_of ~env ~t_sim =
  {
    Compiler.env;
    t_sim;
    alpha_target = [||];
    alpha_achieved = [||];
    error_l1 = 0.0;
    relative_error = 0.0;
    eps1 = 0.0;
    eps2_total = 0.0;
    theorem1_bound = infinity;
    components = [];
    constraint_iterations = 0;
    compile_seconds = 0.0;
    warnings = [];
    diagnostics = [];
    failures = [];
    degraded = false;
    plan =
      {
        Compiler.cache_enabled = false;
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
      };
  }

let pick st xs = List.nth xs (Random.State.int st (List.length xs))
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

(* coarse grids make coincident atoms (an infinite pair amplitude)
   common; fine ones give generic layouts *)
let coordinate st ~coarse =
  if coarse then pick st [ -4.5; 0.0; 4.5 ] else uniform st (-20.0) 20.0

(* A value inside the variable's box; zero (a vanishing drive) when the
   box allows it, one draw in five. *)
let inside st (v : Variable.t) =
  let { Qturbo_optim.Bounds.lo; hi } = v.Variable.bound in
  if lo = hi then lo
  else if lo <= 0.0 && 0.0 <= hi && Random.State.int st 5 = 0 then 0.0
  else uniform st (Float.max lo (-50.0)) (Float.min hi 50.0)

(* Targets with native and non-native terms (XX, Y), repeated strings,
   zero coefficients and the identity. *)
let random_target st ~n =
  let site () = Random.State.int st n in
  let pair op =
    let i = site () and j = site () in
    if i = j then Pauli_string.single i op else Pauli_string.two i op j op
  in
  let strings =
    List.init
      (1 + Random.State.int st (3 * n))
      (fun _ ->
        match Random.State.int st 6 with
        | 0 -> Pauli_string.identity
        | 1 -> Pauli_string.single (site ()) Pauli.X
        | 2 -> Pauli_string.single (site ()) Pauli.Y
        | 3 -> Pauli_string.single (site ()) Pauli.Z
        | 4 -> pair Pauli.Z
        | _ -> pair Pauli.X)
  in
  Pauli_sum.of_list
    (List.map
       (fun s ->
         let s = if Random.State.int st 4 = 0 then pick st strings else s in
         (s, if Random.State.int st 6 = 0 then 0.0 else uniform st (-2.0) 2.0))
       strings)

let random_times st =
  let t_sim = uniform st 0.01 3.0 in
  let t_tar = if Random.State.int st 10 = 0 then 0.0 else uniform st 0.01 3.0 in
  (t_sim, t_tar)

let check_report (report : Verifier.report) (e, r, m) =
  same_float report.Verifier.error_l1 e
  && same_float report.Verifier.relative_error r
  && same_float report.Verifier.max_term_error m

let random_rydberg st =
  let geometry = pick st [ Device.Line; Device.Plane ] in
  let control = pick st [ Device.Global; Device.Local ] in
  let spec =
    Device.with_control control
      (Device.with_geometry geometry
         { Device.aquila_paper with Device.max_extent = 2000.0 })
  in
  let n = 1 + Random.State.int st 7 in
  let coarse = Random.State.bool st in
  let ryd = Rydberg.build_cutoff ~cutoff:Rydberg.All_pairs ~spec ~n in
  let env =
    Array.map
      (fun (v : Variable.t) ->
        if Variable.is_fixed v && v.Variable.bound.lo <> v.Variable.bound.hi
        then coordinate st ~coarse
        else inside st v)
      (Aais.variables ryd.Rydberg.aais)
  in
  (ryd, env)

(* the oracle at an AAIS's variable values, as [Rydberg.hamiltonian]
   reads them *)
let oracle_rydberg_of (ryd : Rydberg.t) ~env =
  let k i =
    match ryd.Rydberg.spec.Device.control with
    | Device.Global -> 0
    | Device.Local -> i
  in
  let per_atom vars =
    Array.init ryd.Rydberg.n (fun i -> env.(vars.(k i).Variable.id))
  in
  oracle_rydberg ~spec:ryd.Rydberg.spec ~positions:(Rydberg.positions ryd ~env)
    ~omega:(per_atom ryd.Rydberg.omegas) ~phi:(per_atom ryd.Rydberg.phis)
    ~delta:(per_atom ryd.Rydberg.deltas) ()

let seeds = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

let prop_rydberg_terms_match_oracle =
  QCheck.Test.make ~name:"rydberg hamiltonian_of_pulse equals the map oracle"
    ~count:300 seeds (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 8 in
      let coarse = Random.State.bool st in
      let positions =
        Array.init n (fun _ -> (coordinate st ~coarse, coordinate st ~coarse))
      in
      let per_atom lo hi =
        Array.init n (fun _ -> pick st [ 0.0; uniform st lo hi ])
      in
      let omega = per_atom 0.0 15.0
      and phi = per_atom (-.Float.pi) Float.pi
      and delta = per_atom (-120.0) 120.0 in
      let cutoff_radius = pick st [ None; Some (uniform st 1.0 30.0) ] in
      let spec = Device.aquila_paper in
      same_terms
        (Pauli_sum.terms
           (Rydberg.hamiltonian_of_pulse ?cutoff_radius ~spec ~positions
              ~omega ~phi ~delta ()))
        (Pauli_sum.terms
           (oracle_rydberg ?cutoff_radius ~spec ~positions ~omega ~phi ~delta
              ())))

let prop_rydberg_stream_ascending =
  QCheck.Test.make ~name:"rydberg iter_terms is the sorted collected sum"
    ~count:200 seeds (fun seed ->
      let st = Random.State.make [| seed |] in
      let ryd, env = random_rydberg st in
      let streamed = ref [] in
      Rydberg.iter_terms ryd ~env (fun s c -> streamed := (s, c) :: !streamed);
      same_terms (List.rev !streamed)
        (Pauli_sum.terms (oracle_rydberg_of ryd ~env)))

let prop_verify_rydberg_matches_oracle =
  QCheck.Test.make ~name:"verify_rydberg equals the map oracle bitwise"
    ~count:300 seeds (fun seed ->
      let st = Random.State.make [| seed |] in
      let ryd, env = random_rydberg st in
      let target = random_target st ~n:ryd.Rydberg.n in
      let t_sim, t_tar = random_times st in
      check_report
        (Verifier.verify_rydberg ryd ~target ~t_tar (result_of ~env ~t_sim))
        (oracle_compare ~h_sim:(oracle_rydberg_of ryd ~env) ~t_sim ~target
           ~t_tar))

let random_env st aais = Array.map (inside st) (Aais.variables aais)

let prop_verify_heisenberg_iontrap_match_oracle =
  QCheck.Test.make
    ~name:"verify_heisenberg and verify_iontrap equal the map oracle"
    ~count:200 seeds (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 2 + Random.State.int st 5 in
      let target = random_target st ~n in
      let t_sim, t_tar = random_times st in
      let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n in
      let env = random_env st heis.Heisenberg.aais in
      let trap = Iontrap.build ~spec:Device.iontrap_chain ~n in
      let trap_env = random_env st trap.Iontrap.aais in
      check_report
        (Verifier.verify_heisenberg heis ~target ~t_tar (result_of ~env ~t_sim))
        (oracle_compare ~h_sim:(Heisenberg.hamiltonian heis ~env) ~t_sim
           ~target ~t_tar)
      && check_report
           (Verifier.verify_iontrap trap ~target ~t_tar
              (result_of ~env:trap_env ~t_sim))
           (oracle_compare
              ~h_sim:(Iontrap.hamiltonian trap ~env:trap_env)
              ~t_sim ~target ~t_tar))

(* Bytes, not time: the n=300 planar ising-cycle at a 45 um cutoff is
   the warm-sweep shape whose verify the stream made cheap.  The bound
   sits between the 2.2 MB it allocates and the 20 MB that one
   allocated map per pair term costs. *)
let test_verify_allocation () =
  let inst =
    Qturbo_backend.Backend.rydberg.Qturbo_backend.Backend.instantiate
      ~cutoff:"45" ~model_name:"ising-cycle" ~n:300 ()
  in
  let target =
    Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.by_name ~name:"ising-cycle" ~n:300)
         ~s:0.0)
  in
  let r =
    Compiler.compile
      ~options:{ Compiler.default_options with Compiler.domains = 1 }
      ~aais:inst.Qturbo_backend.Backend.aais ~target ~t_tar:1.0 ()
  in
  let before = Qturbo_util.Alloc.bytes () in
  let report = inst.Qturbo_backend.Backend.verify ~target ~t_tar:1.0 r in
  let bytes = Qturbo_util.Alloc.bytes () -. before in
  Alcotest.(check bool) "finite error" true
    (Float.is_finite report.Verifier.error_l1);
  if bytes >= 8e6 then
    Alcotest.failf "verify at ising-cycle n=300 allocated %.1f MB" (bytes /. 1e6)

(* property: serialization roundtrips arbitrary well-formed pulses *)
let pulse_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    int_range 1 3 >>= fun n_segs ->
    let farr lo hi = array_size (return n) (float_range lo hi) in
    list_repeat n_segs
      (float_range 0.01 2.0 >>= fun duration ->
       farr 0.0 6.0 >>= fun omega ->
       farr (-3.0) 3.0 >>= fun phi ->
       farr (-10.0) 10.0 >>= fun delta ->
       return { Pulse.duration; omega; phi; delta })
    >>= fun segments ->
    array_size (return n) (pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
    >>= fun positions ->
    return { Pulse.spec = Device.aquila; positions; segments })

let prop_io_roundtrip =
  QCheck.Test.make ~name:"pulse serialization roundtrips" ~count:100
    (QCheck.make pulse_gen) (fun p ->
      match Pulse_io.of_string (Pulse_io.to_string p) with
      | Ok p' -> pulses_equal p p'
      | Error _ -> false)

let () =
  Alcotest.run "io_verify"
    [
      ( "pulse_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "exact floats" `Quick test_roundtrip_exact_floats;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "channel arity" `Quick test_parse_rejects_wrong_channel_arity;
          Alcotest.test_case "compiled pulse" `Quick test_compiled_pulse_roundtrip;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts good compilation" `Quick
            test_verifier_accepts_good_compilation;
          Alcotest.test_case "detects tampering" `Quick test_verifier_detects_tampering;
          Alcotest.test_case "detects limit violations" `Quick
            test_verifier_detects_limit_violation;
          Alcotest.test_case "heisenberg exact" `Quick test_verifier_heisenberg_exact;
          Alcotest.test_case "heisenberg overtime" `Quick
            test_verifier_heisenberg_flags_overtime;
          Alcotest.test_case "n=300 verify allocates under 8 MB" `Quick
            test_verify_allocation;
        ] );
      ( "verifier-stream",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rydberg_terms_match_oracle;
            prop_rydberg_stream_ascending;
            prop_verify_rydberg_matches_oracle;
            prop_verify_heisenberg_iontrap_match_oracle;
          ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_io_roundtrip ] );
    ]
