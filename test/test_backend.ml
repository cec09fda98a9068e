(* Backend abstraction tests: registry lookup and flag declarations,
   golden bitwise equivalence of the refactored Rydberg/Heisenberg paths
   against the pre-refactor construction on the Fig. 3 series, Shape-key
   separation across backends, and the ion-trap family end-to-end
   (compile, verify, plan cache, lint, supervisor faults, determinism). *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module Backend = Qturbo_backend.Backend

let static_target name n =
  Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at
       (Qturbo_models.Benchmarks.by_name ~name ~n)
       ~s:0.0)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let check_bits_arr msg a b =
  if not (bits_equal a b) then Alcotest.failf "%s: arrays differ bitwise" msg

let check_bits msg a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %h vs %h" msg a b

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let opts ?faults ?(best_effort = false) ~domains () =
  {
    Compiler.default_options with
    Compiler.domains;
    best_effort;
    faults =
      (match faults with
      | None -> Some Qturbo_resilience.Fault.empty
      | Some f -> Some f);
  }

(* ---- registry ---- *)

let test_registry () =
  Alcotest.(check (list string))
    "registration order"
    [ "rydberg"; "heisenberg"; "iontrap" ]
    (Backend.names ());
  List.iter
    (fun name ->
      match Backend.find name with
      | Some b -> Alcotest.(check string) "find" name b.Backend.name
      | None -> Alcotest.failf "backend %s not registered" name)
    (Backend.names ());
  Alcotest.(check bool) "unknown" true (Backend.find "bogus" = None);
  (match Backend.find_exn "bogus" with
  | exception Failure msg ->
      Alcotest.(check bool)
        "error names the known backends" true
        (List.for_all (fun n -> contains ~needle:n msg) (Backend.names ()))
  | _ -> Alcotest.fail "find_exn should raise on unknown backends");
  Alcotest.(check bool)
    "rydberg declares cutoff" true
    (Backend.supports Backend.rydberg Backend.Cutoff);
  Alcotest.(check bool)
    "rydberg declares ramp" true
    (Backend.supports Backend.rydberg Backend.Ramp);
  Alcotest.(check bool)
    "heisenberg declares nothing" true
    (Backend.heisenberg.Backend.flags = []);
  Alcotest.(check bool)
    "iontrap declares device presets only" true
    (Backend.iontrap.Backend.flags = [ Backend.Device_preset ])

let test_flag_rejection () =
  let rejects b ~device ~cutoff ~ramp =
    match Backend.reject_unsupported b ~device ~cutoff ~ramp with
    | () -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "heisenberg --cutoff" true
    (rejects Backend.heisenberg ~device:None ~cutoff:(Some "10") ~ramp:false);
  Alcotest.(check bool) "heisenberg --device" true
    (rejects Backend.heisenberg ~device:(Some "aquila") ~cutoff:None ~ramp:false);
  Alcotest.(check bool) "heisenberg --ramp" true
    (rejects Backend.heisenberg ~device:None ~cutoff:None ~ramp:true);
  Alcotest.(check bool) "iontrap --cutoff" true
    (rejects Backend.iontrap ~device:None ~cutoff:(Some "auto") ~ramp:false);
  Alcotest.(check bool) "iontrap --device accepted" false
    (rejects Backend.iontrap ~device:(Some "iontrap-nn") ~cutoff:None ~ramp:false);
  Alcotest.(check bool) "rydberg everything accepted" false
    (rejects Backend.rydberg ~device:(Some "aquila") ~cutoff:(Some "all-pairs")
       ~ramp:true)

(* ---- golden bitwise equivalence on the Fig. 3 series ----

   The pre-refactor CLI constructions, replicated inline: any drift in
   the backend's instantiate path (preset lookup, window widening,
   geometry switch, cutoff default) shows up as a bitwise diff here. *)

let pre_refactor_rydberg ~model_name ~n =
  let spec = Device.aquila_paper in
  let spec =
    if n > 16 then
      { spec with Device.max_extent = Float.max 2000.0 (3.5 *. float_of_int n) }
    else spec
  in
  let spec =
    match model_name with
    | "ising-cycle" | "ising-cycle+" | "ising-grid" ->
        Device.with_geometry Device.Plane spec
    | _ -> spec
  in
  Rydberg.build_cutoff ~cutoff:Rydberg.Auto ~spec ~n

let fig3 = [ ("ising-chain", 5); ("ising-cycle", 5); ("kitaev", 5) ]

let golden_backend_equal ~backend ~legacy_aais ~model_name ~n =
  let inst = backend.Backend.instantiate ~model_name ~n () in
  let target = static_target model_name n in
  List.iter
    (fun domains ->
      let legacy =
        Compiler.compile ~options:(opts ~domains ()) ~aais:legacy_aais ~target
          ~t_tar:1.0 ()
      in
      let refactored =
        Compiler.compile
          ~options:(opts ~domains ())
          ~aais:inst.Backend.aais ~target ~t_tar:1.0 ()
      in
      let tag what =
        Printf.sprintf "%s %s d=%d %s" backend.Backend.name model_name domains
          what
      in
      check_bits_arr (tag "env") legacy.Compiler.env refactored.Compiler.env;
      check_bits (tag "t_sim") legacy.Compiler.t_sim refactored.Compiler.t_sim;
      check_bits (tag "error_l1") legacy.Compiler.error_l1
        refactored.Compiler.error_l1;
      check_bits (tag "relative") legacy.Compiler.relative_error
        refactored.Compiler.relative_error)
    [ 1; 4 ]

let test_golden_rydberg () =
  List.iter
    (fun (model_name, n) ->
      let legacy = pre_refactor_rydberg ~model_name ~n in
      golden_backend_equal ~backend:Backend.rydberg
        ~legacy_aais:legacy.Rydberg.aais ~model_name ~n)
    fig3

let test_golden_heisenberg () =
  List.iter
    (fun (model_name, n) ->
      let legacy = Heisenberg.build ~spec:Device.heisenberg_default ~n in
      golden_backend_equal ~backend:Backend.heisenberg
        ~legacy_aais:legacy.Heisenberg.aais ~model_name ~n)
    [ ("ising-chain", 5); ("heis-chain", 5); ("kitaev", 5) ]

(* ---- Shape keys never collide across backends ---- *)

let prop_shape_keys_distinct =
  QCheck.Test.make ~name:"Shape keys distinct across backends, same support"
    ~count:20
    QCheck.(pair (int_range 2 7) (int_range 0 2))
    (fun (n, which) ->
      let model_name =
        match which with 0 -> "ising-chain" | 1 -> "kitaev" | _ -> "pxp"
      in
      let target = static_target model_name n in
      let keys =
        List.map
          (fun (b : Backend.t) ->
            let inst = b.Backend.instantiate ~model_name ~n () in
            Compile_plan.plan_key ~options:Compiler.default_options
              ~aais:inst.Backend.aais ~target)
          (Backend.all ())
      in
      let distinct = List.sort_uniq compare keys in
      List.length distinct = List.length keys)

(* ---- ion-trap end-to-end ---- *)

let iontrap_inst ?device ~n () =
  Backend.iontrap.Backend.instantiate ?device ~model_name:"ising-chain" ~n ()

let test_iontrap_compile_verify () =
  let n = 6 in
  let inst = iontrap_inst ~n () in
  let target = static_target "ising-chain" n in
  let r =
    Compiler.compile ~options:(opts ~domains:1 ()) ~aais:inst.Backend.aais
      ~target ~t_tar:1.0 ()
  in
  (* every target term maps onto a dedicated linear/polar channel, so the
     compile is exact up to float rounding *)
  Alcotest.(check bool) "tiny error" true (r.Compiler.error_l1 < 1e-9);
  Alcotest.(check bool) "finite time" true (Float.is_finite r.Compiler.t_sim);
  let report = inst.Backend.verify ~target ~t_tar:1.0 r in
  Alcotest.(check bool) "executable" true report.Verifier.executable;
  Alcotest.(check (list string)) "no violations" [] report.Verifier.violations;
  Alcotest.(check bool)
    "consistent" true report.Verifier.consistent_with_compiler;
  (* the JSON report is strict RFC 8259 *)
  match Qturbo_util.Json.parse (Verifier.report_to_json report) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "report JSON does not parse: %s" msg

let test_iontrap_plan_cache_and_determinism () =
  let n = 5 in
  let inst = iontrap_inst ~n () in
  let target = static_target "ising-chain" n in
  let compile ~domains =
    Compiler.compile ~options:(opts ~domains ()) ~aais:inst.Backend.aais
      ~target ~t_tar:1.0 ()
  in
  let cold = compile ~domains:1 in
  let warm = compile ~domains:1 in
  Alcotest.(check bool)
    "warm compile hits the plan cache" true warm.Compiler.plan.Compiler.cache_hit;
  check_bits_arr "warm env bitwise" cold.Compiler.env warm.Compiler.env;
  let par = compile ~domains:4 in
  check_bits_arr "domains=4 env bitwise" cold.Compiler.env par.Compiler.env;
  check_bits "domains=4 t_sim bitwise" cold.Compiler.t_sim par.Compiler.t_sim;
  check_bits "domains=4 error bitwise" cold.Compiler.error_l1
    par.Compiler.error_l1

let test_iontrap_lint_clean () =
  let inst = iontrap_inst ~n:5 () in
  let kernel_diags = Qturbo_analysis.Kernel_check.check_aais inst.Backend.aais in
  Alcotest.(check int) "kernel lint clean" 0 (List.length kernel_diags);
  let target = static_target "ising-chain" 5 in
  let support = Compile_plan.support_of_target target in
  let plan = Compile_plan.build ~aais:inst.Backend.aais ~target_shape:support () in
  Alcotest.(check int)
    "plan lint clean" 0
    (List.length (Compile_plan.lint plan));
  let analyzer =
    Compiler.analyze ~t_max:inst.Backend.max_time ~aais:inst.Backend.aais
      ~target ~t_tar:1.0 ()
  in
  Alcotest.(check int)
    "analyzer errors" 0
    (List.length (Qturbo_analysis.Diagnostic.errors analyzer))

let test_iontrap_supervisor_faults () =
  let n = 5 in
  let inst = iontrap_inst ~n () in
  let target = static_target "ising-chain" n in
  (* the trap family's channels are all closed-form (linear/polar), so no
     supervised solver site ever fires on the default path — fault
     injection is a no-op there.  Force the generic iterative local
     solver to route the same compile through the supervised ladder. *)
  let opts ?faults ?best_effort () =
    {
      (opts ?faults ?best_effort ~domains:1 ()) with
      Compiler.generic_local_solver = true;
    }
  in
  let clean =
    Compiler.compile ~options:(opts ()) ~aais:inst.Backend.aais ~target
      ~t_tar:1.0 ()
  in
  (* a faulted first attempt must be recovered by the escalation ladder:
     same result as a clean compile, with failure records attached *)
  let faulted =
    Compiler.compile
      ~options:(opts ~faults:(Qturbo_resilience.Fault.parse_exn "lm=nan") ())
      ~aais:inst.Backend.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "not degraded" false faulted.Compiler.degraded;
  Alcotest.(check bool)
    "recovery recorded" true
    (faulted.Compiler.failures <> []);
  (* the jittered restart may land on a different parameterization of the
     same optimum, so compare the achieved error, not the raw env *)
  Alcotest.(check (float 1e-6))
    "recovered error matches clean" clean.Compiler.error_l1
    faulted.Compiler.error_l1;
  (* under total fault injection, best-effort still returns *)
  let degraded =
    Compiler.compile
      ~options:
        (opts
           ~faults:(Qturbo_resilience.Fault.parse_exn "*=nan")
           ~best_effort:true ())
      ~aais:inst.Backend.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "degraded" true degraded.Compiler.degraded;
  Alcotest.(check bool)
    "failures recorded" true
    (degraded.Compiler.failures <> [])

let test_iontrap_pulse () =
  let n = 4 in
  let inst = iontrap_inst ~n () in
  let target = static_target "ising-chain" n in
  let r =
    Compiler.compile ~options:(opts ~domains:1 ()) ~aais:inst.Backend.aais
      ~target ~t_tar:1.0 ()
  in
  let pulse = inst.Backend.extract ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
  Alcotest.(check (list string))
    "within limits" [] (Backend.pulse_violations pulse);
  (* ramp is the identity for the trap family *)
  (match (pulse, inst.Backend.ramp pulse) with
  | Backend.Iontrap_pulse a, Backend.Iontrap_pulse b ->
      Alcotest.(check bool) "ramp identity" true (a == b)
  | _ -> Alcotest.fail "expected an iontrap pulse");
  (match Qturbo_util.Json.parse (Backend.pulse_json pulse) with
  | Ok json ->
      (match Qturbo_util.Json.member "family" json with
      | Some (Qturbo_util.Json.String "iontrap") -> ()
      | _ -> Alcotest.fail "family field")
  | Error msg -> Alcotest.failf "pulse JSON does not parse: %s" msg);
  Alcotest.(check bool)
    "text printer says iontrap" true
    (String.length (Backend.pulse_text pulse) > 0
    && String.sub (Backend.pulse_text pulse) 0 7 = "iontrap")

let test_iontrap_nn_preset () =
  let inst = iontrap_inst ~device:"iontrap-nn" ~n:4 () in
  Alcotest.(check string) "device name" "iontrap-nn" inst.Backend.device_name;
  (* nearest-neighbour preset has no long-range channels: 3 bonds x 3
     bases + 4 shifts + 4 drives *)
  Alcotest.(check int)
    "channel count" (9 + 4 + 8)
    (Aais.channel_count inst.Backend.aais);
  match iontrap_inst ~device:"bogus" ~n:4 () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown preset should fail"

(* ---- qaoa-chain ---- *)

let test_qaoa_discretization () =
  let n = 4 in
  let model = Qturbo_models.Benchmarks.qaoa_chain ~p:2 ~n () in
  Alcotest.(check bool) "driven" true (Qturbo_models.Model.is_driven model);
  (* midpoints of 4 equal segments hit the 4 slots in order:
     cost, mixer, cost, mixer *)
  let zz = Pauli_string.two 0 Pauli.Z 1 Pauli.Z in
  let x0 = Pauli_string.single 0 Pauli.X in
  List.iteri
    (fun k s ->
      let h = Qturbo_models.Model.hamiltonian_at model ~s in
      if k mod 2 = 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "slot %d is cost" k)
          true
          (Pauli_sum.coeff h zz = 1.0 && Pauli_sum.coeff h x0 = 0.0)
      end
      else
        Alcotest.(check bool)
          (Printf.sprintf "slot %d is mixer" k)
          true
          (Pauli_sum.coeff h zz = 0.0 && Pauli_sum.coeff h x0 = 1.0))
    [ 0.125; 0.375; 0.625; 0.875 ]

let test_qaoa_compiles_on_all_backends () =
  let n = 4 in
  let model = Qturbo_models.Benchmarks.qaoa_chain ~p:2 ~n () in
  List.iter
    (fun backend_name ->
      let b = Backend.find_exn backend_name in
      let inst = b.Backend.instantiate ~model_name:"qaoa-chain" ~n () in
      let td =
        Td_compiler.compile ~options:(opts ~domains:1 ()) ~aais:inst.Backend.aais
          ~model ~t_tar:1.0 ~segments:4 ()
      in
      Alcotest.(check int)
        (backend_name ^ " segments") 4
        (List.length td.Td_compiler.segments);
      Alcotest.(check bool)
        (backend_name ^ " not degraded")
        false td.Td_compiler.degraded;
      (* heisenberg and iontrap have native ZZ and X channels, so the
         alternating layers compile exactly *)
      if backend_name <> "rydberg" then
        Alcotest.(check bool)
          (backend_name ^ " exact")
          true
          (td.Td_compiler.relative_error < 1e-6))
    [ "rydberg"; "heisenberg"; "iontrap" ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "backend"
    [
      ( "registry",
        [
          quick "names, lookup, flags" test_registry;
          quick "unsupported flags rejected" test_flag_rejection;
        ] );
      ( "golden",
        [
          quick "rydberg bitwise == pre-refactor (Fig. 3)" test_golden_rydberg;
          quick "heisenberg bitwise == pre-refactor" test_golden_heisenberg;
        ] );
      ("keys", [ QCheck_alcotest.to_alcotest prop_shape_keys_distinct ]);
      ( "iontrap",
        [
          quick "compile + verify" test_iontrap_compile_verify;
          quick "plan cache + bitwise domains" test_iontrap_plan_cache_and_determinism;
          quick "lint + analyzer clean" test_iontrap_lint_clean;
          quick "supervisor fault recovery" test_iontrap_supervisor_faults;
          quick "pulse extraction, limits, JSON" test_iontrap_pulse;
          quick "nn preset" test_iontrap_nn_preset;
        ] );
      ( "qaoa",
        [
          quick "alternating discretization" test_qaoa_discretization;
          quick "compiles on all three backends" test_qaoa_compiles_on_all_backends;
        ] );
    ]
