(* Coverage suite: corners of the public APIs not exercised by the main
   per-library suites, plus semantic property tests for the expression
   simplifier/differentiator over randomly generated trees. *)

open Qturbo_util

let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.10g vs %.10g" msg a b

(* ---- util corners ---- *)

let test_stderr_mean () =
  (* sd of [1;3] = sqrt 2, stderr = 1 *)
  check_close "stderr" 1e-12 1.0 (Stats.stderr_mean [| 1.0; 3.0 |])

let test_rng_split_reproducible () =
  let mk () =
    let parent = Rng.create ~seed:99L in
    let child = Rng.split parent in
    (Rng.next_int64 parent, Rng.next_int64 child)
  in
  Alcotest.(check bool) "deterministic split" true (mk () = mk ())

let test_table_header_only () =
  let t = Table_fmt.create ~header:[ "a"; "b" ] in
  let lines = String.split_on_char '\n' (Table_fmt.render t) in
  Alcotest.(check int) "header and separator only" 2 (List.length lines)

(* ---- linalg corners ---- *)

open Qturbo_linalg

let test_mat_row_col_frobenius () =
  let m = Mat.of_rows [| [| 3.0; 4.0 |]; [| 0.0; 0.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "row" [| 3.0; 4.0 |] (Mat.row m 0);
  Alcotest.(check (array (float 1e-12))) "col" [| 4.0; 0.0 |] (Mat.col m 1);
  check_close "frobenius" 1e-12 5.0 (Mat.frobenius m)

let test_lu_factor_reuse () =
  let a = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  let f = Lu.factorize a in
  Alcotest.(check (array (float 1e-12))) "rhs 1" [| 1.0; 0.5 |]
    (Lu.solve_factored f [| 2.0; 2.0 |]);
  Alcotest.(check (array (float 1e-12))) "rhs 2" [| 2.0; 1.0 |]
    (Lu.solve_factored f [| 4.0; 4.0 |])

let test_csr_row_entries () =
  let s =
    Csr.of_triplets ~rows:2 ~cols:4
      [
        { Csr.row = 0; col = 3; value = 7.0 };
        { Csr.row = 0; col = 1; value = 5.0 };
      ]
  in
  Alcotest.(check (list (pair int (float 1e-12)))) "sorted columns"
    [ (1, 5.0); (3, 7.0) ]
    (Csr.row_entries s 0);
  Alcotest.(check (list (pair int (float 1e-12)))) "empty row" [] (Csr.row_entries s 1)

(* ---- optim corners ---- *)

open Qturbo_optim

let test_multistart_exhausts_starts () =
  let rng = Rng.create ~seed:3L in
  let solves = ref 0 in
  let best =
    Multistart.search ~rng ~starts:5
      ~sample:(fun rng -> [| Rng.uniform rng ~lo:0.0 ~hi:1.0 |])
      ~solve:(fun x0 ->
        incr solves;
        Levenberg_marquardt.minimize (fun x -> [| x.(0) |]) x0)
      ~accept:(fun _ -> false)
  in
  Alcotest.(check int) "all starts consumed" 5 !solves;
  Alcotest.(check bool) "best kept anyway" true (best <> None)

let test_golden_respects_bracket () =
  let r = Scalar.golden_min ~f:(fun x -> -.x) ~lo:0.0 ~hi:2.0 () in
  Alcotest.(check bool) "argmin at upper end" true (r.Scalar.argmin > 1.99)

let test_nm_respects_iteration_cap () =
  let options = { Nelder_mead.default_options with Nelder_mead.max_iterations = 3 } in
  let r = Nelder_mead.minimize ~options (fun x -> x.(0) ** 2.0) [| 100.0 |] in
  Alcotest.(check bool) "stopped by cap" true (r.Objective.iterations <= 3)

(* ---- aais corners ---- *)

open Qturbo_aais

let test_variable_lookup () =
  let pool = Variable.create_pool () in
  let v = Variable.fresh pool ~name:"x" ~kind:Variable.Runtime_fixed ~lo:1.0 ~hi:2.0 () in
  let fetched = Variable.get pool v.Variable.id in
  Alcotest.(check string) "name" "x" fetched.Variable.name;
  Alcotest.(check int) "bounds array" 1 (Array.length (Variable.bounds_array pool));
  Alcotest.check_raises "unknown id" (Invalid_argument "Variable.get: unknown id")
    (fun () -> ignore (Variable.get pool 7))

let test_device_with_control () =
  let s = Device.with_control Device.Global Device.aquila_paper in
  Alcotest.(check bool) "control flipped" true (s.Device.control = Device.Global);
  Alcotest.(check string) "rest untouched" Device.aquila_paper.Device.name s.Device.name

let test_expr_pp_smoke () =
  let text = Format.asprintf "%a" Expr.pp Expr.(Mul (Const 2.0, Sin (Var 3))) in
  Alcotest.(check bool) "mentions operands" true
    (String.length text > 0
    && String.index_opt text 's' <> None
    && String.index_opt text '2' <> None)

let test_rydberg_single_atom () =
  (* no pairs: only detuning and rabi instructions *)
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:1 in
  Alcotest.(check int) "two instructions" 2
    (List.length ryd.Rydberg.aais.Aais.instructions)

(* ---- core corners ---- *)

open Qturbo_core

let golden () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:3 in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_chain ~n:3 ())
         ~s:0.0)
  in
  (ryd, target, Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ())

let test_component_summaries_content () =
  let _, _, r = golden () in
  let by_class c =
    List.filter
      (fun (s : Compiler.component_summary) -> s.Compiler.classification = c)
      r.Compiler.components
  in
  Alcotest.(check int) "one fixed component" 1 (List.length (by_class "fixed"));
  Alcotest.(check int) "three polar" 3 (List.length (by_class "polar"));
  List.iter
    (fun (s : Compiler.component_summary) ->
      check_close "polar bottleneck time" 1e-9 0.8 s.Compiler.min_time;
      Alcotest.(check int) "polar channel pair" 2 s.Compiler.channels)
    (by_class "polar")

let test_extract_segments_rejects_empty () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:2 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Extract.rydberg_pulse_segments: no segments") (fun () ->
      ignore (Extract.rydberg_pulse_segments ryd ~segments:[]))

let test_td_binding_segment_in_range () =
  let spec = { Device.aquila_paper with Device.max_extent = 1e6 } in
  let ryd = Rydberg.build ~spec ~n:3 in
  let model = Qturbo_models.Benchmarks.mis_chain ~n:3 () in
  let td = Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:5 () in
  Alcotest.(check bool) "binding segment indexes a segment" true
    (td.Td_compiler.binding_segment >= 0 && td.Td_compiler.binding_segment < 5)

(* ---- quantum corners ---- *)

open Qturbo_quantum

let test_state_probabilities_sum () =
  let h =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n:3 ()) ~s:0.0
  in
  let s = Evolve.evolve ~h ~t:0.9 (State.ground ~n:3) in
  let total = Array.fold_left ( +. ) 0.0 (State.probabilities s) in
  check_close "sums to one" 1e-9 1.0 total

let test_trotter_single_step_api () =
  let h = Qturbo_pauli.Pauli_sum.term 1.0 (Qturbo_pauli.Pauli_string.single 0 Qturbo_pauli.Pauli.Z) in
  let s = Trotter.step_first_order ~h ~dt:0.5 (State.basis ~n:1 1) in
  (* exp(-i(-1)0.5)|1>: probability unchanged *)
  check_close "diagonal step" 1e-12 1.0 (State.probability s 1)

let test_apply_compiled_n () =
  let c = Apply.compile ~n:4 Qturbo_pauli.Pauli_sum.zero in
  Alcotest.(check int) "n recorded" 4 (Apply.compiled_n c)

(* ---- Expr semantic properties over random trees ---- *)

let expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof [ map (fun x -> Expr.Const x) (float_range (-3.0) 3.0);
            map (fun v -> Expr.Var v) (int_range 0 2) ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        let sub = self (depth - 1) in
        oneof
          [
            leaf;
            map (fun a -> Expr.Neg a) sub;
            map2 (fun a b -> Expr.Add (a, b)) sub sub;
            map2 (fun a b -> Expr.Sub (a, b)) sub sub;
            map2 (fun a b -> Expr.Mul (a, b)) sub sub;
            map (fun a -> Expr.Sin a) sub;
            map (fun a -> Expr.Cos a) sub;
            map (fun a -> Expr.Pow_int (a, 2)) sub;
          ])
    3

let arb_expr = QCheck.make ~print:(Format.asprintf "%a" Expr.pp) expr_gen

let sample_env = [| 0.7; -1.3; 2.1 |]

let prop_simplify_preserves_value =
  QCheck.Test.make ~name:"simplify preserves the evaluated value" ~count:300
    arb_expr (fun e ->
      let a = Expr.eval e ~env:sample_env in
      let b = Expr.eval (Expr.simplify e) ~env:sample_env in
      (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a))

let prop_deriv_matches_finite_difference =
  QCheck.Test.make ~name:"symbolic derivative matches finite differences"
    ~count:200 arb_expr (fun e ->
      let v = 0 in
      let f x =
        let env = Array.copy sample_env in
        env.(v) <- x;
        Expr.eval e ~env
      in
      let x0 = sample_env.(v) in
      let h = 1e-6 in
      let numeric = (f (x0 +. h) -. f (x0 -. h)) /. (2.0 *. h) in
      let symbolic =
        let env = Array.copy sample_env in
        Expr.eval (Expr.deriv e v) ~env
      in
      (not (Float.is_finite numeric))
      || Float.abs (numeric -. symbolic) <= 1e-3 *. Float.max 1.0 (Float.abs symbolic))

let prop_vars_sound =
  QCheck.Test.make ~name:"changing a non-listed variable never changes the value"
    ~count:200 arb_expr (fun e ->
      let vars = Expr.vars e in
      let untouched = List.filter (fun v -> not (List.mem v vars)) [ 0; 1; 2 ] in
      List.for_all
        (fun v ->
          let env = Array.copy sample_env in
          env.(v) <- env.(v) +. 5.0;
          let a = Expr.eval e ~env:sample_env and b = Expr.eval e ~env in
          (Float.is_nan a && Float.is_nan b) || a = b)
        untouched)

let () =
  Alcotest.run "coverage"
    [
      ( "util",
        [
          Alcotest.test_case "stderr_mean" `Quick test_stderr_mean;
          Alcotest.test_case "split reproducible" `Quick test_rng_split_reproducible;
          Alcotest.test_case "empty table" `Quick test_table_header_only;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "row/col/frobenius" `Quick test_mat_row_col_frobenius;
          Alcotest.test_case "LU factor reuse" `Quick test_lu_factor_reuse;
          Alcotest.test_case "csr row entries" `Quick test_csr_row_entries;
        ] );
      ( "optim",
        [
          Alcotest.test_case "multistart exhausts" `Quick test_multistart_exhausts_starts;
          Alcotest.test_case "golden bracket" `Quick test_golden_respects_bracket;
          Alcotest.test_case "NM iteration cap" `Quick test_nm_respects_iteration_cap;
        ] );
      ( "aais",
        [
          Alcotest.test_case "variable lookup" `Quick test_variable_lookup;
          Alcotest.test_case "with_control" `Quick test_device_with_control;
          Alcotest.test_case "expr pp" `Quick test_expr_pp_smoke;
          Alcotest.test_case "single atom" `Quick test_rydberg_single_atom;
        ] );
      ( "core",
        [
          Alcotest.test_case "component summaries" `Quick test_component_summaries_content;
          Alcotest.test_case "extract empty segments" `Quick test_extract_segments_rejects_empty;
          Alcotest.test_case "binding segment" `Quick test_td_binding_segment_in_range;
        ] );
      ( "quantum",
        [
          Alcotest.test_case "probabilities sum" `Quick test_state_probabilities_sum;
          Alcotest.test_case "trotter step api" `Quick test_trotter_single_step_api;
          Alcotest.test_case "compiled_n" `Quick test_apply_compiled_n;
        ] );
      ( "expr_properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_simplify_preserves_value;
            prop_deriv_matches_finite_difference;
            prop_vars_sound;
          ] );
    ]
