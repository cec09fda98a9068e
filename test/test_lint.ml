(* Tests for static analyzer stage two: the kernel IR verifier
   (Kernel_check, QT017-QT022), the plan-invariant linter (Plan_lint via
   Compile_plan.lint, QT023-QT026), the lint gate on fresh plan builds,
   and the fused/unfused peephole-equivalence property. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module D = Qturbo_analysis.Diagnostic
module KC = Qturbo_analysis.Kernel_check

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)

let check_codes msg expected diags =
  Alcotest.(check (list string)) msg expected (codes diags)

(* ---- device / plan fixtures (same presets as test_plan.ml) ---- *)

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }
let relaxed_plane = Device.with_geometry Device.Plane relaxed_line

let rydberg_for name n =
  let spec =
    match name with
    | "ising-cycle" | "ising-cycle+" -> relaxed_plane
    | _ -> relaxed_line
  in
  Rydberg.build ~spec ~n

let static_target name n =
  Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at
       (Qturbo_models.Benchmarks.by_name ~name ~n)
       ~s:0.0)

let plan_for name n =
  let ryd = rydberg_for name n in
  let target = static_target name n in
  Compile_plan.build ~aais:ryd.Rydberg.aais
    ~target_shape:(Compile_plan.support_of_target target)
    ()

(* ---- kernel verifier: every real kernel is provably safe ---- *)

(* Fig. 3 benchmark models plus the §5 worked example: every channel
   kernel of every device must verify clean, on both backends. *)
let test_kernels_clean_rydberg () =
  List.iter
    (fun (name, n) ->
      let ryd = rydberg_for name n in
      match KC.check_aais ryd.Rydberg.aais with
      | [] -> ()
      | diags ->
          Alcotest.failf "%s/%d: %s" name n
            (String.concat "; " (List.map D.to_string diags)))
    [
      ("ising-chain", 3);
      ("ising-chain", 7);
      ("ising-cycle", 5);
      ("kitaev", 5);
      ("ising-cycle+", 5);
      ("mis-chain", 5);
      ("pxp", 5);
    ]

let test_kernels_clean_heisenberg () =
  List.iter
    (fun n ->
      let h = Heisenberg.build ~spec:Device.heisenberg_default ~n in
      match KC.check_aais h.Heisenberg.aais with
      | [] -> ()
      | diags ->
          Alcotest.failf "heisenberg/%d: %s" n
            (String.concat "; " (List.map D.to_string diags)))
    [ 3; 6 ]

(* ---- kernel verifier: each code fires on a seeded defect ---- *)

let kv prog ~consts ~depth ~max_var =
  Expr.kernel_of_view (Array.of_list prog) ~consts ~depth ~max_var

let test_qt017_underflow () =
  check_codes "underflow" [ "QT017" ]
    (KC.check ~n_env:4 (kv [ Expr.K_binop Expr.B_add ] ~consts:[||] ~depth:1 ~max_var:(-1)));
  (* underflow mid-program, after a legitimate push *)
  check_codes "late underflow" [ "QT017" ]
    (KC.check ~n_env:4
       (kv [ Expr.K_var 0; Expr.K_binop Expr.B_mul ] ~consts:[||] ~depth:2 ~max_var:0))

let test_qt018_arity () =
  check_codes "two results" [ "QT018" ]
    (KC.check ~n_env:4
       (kv [ Expr.K_var 0; Expr.K_var 1 ] ~consts:[||] ~depth:2 ~max_var:1));
  check_codes "empty program" [ "QT018" ]
    (KC.check ~n_env:4 (kv [] ~consts:[||] ~depth:1 ~max_var:(-1)))

let test_qt019_env () =
  check_codes "beyond environment" [ "QT019" ]
    (KC.check ~n_env:4 (kv [ Expr.K_var 9 ] ~consts:[||] ~depth:1 ~max_var:9));
  (* within the environment but beyond the kernel's own declared
     max_var: a lying closedness witness *)
  check_codes "beyond declared max_var" [ "QT019" ]
    (KC.check ~n_env:4 (kv [ Expr.K_var 2 ] ~consts:[||] ~depth:1 ~max_var:1))

let test_qt020_depth () =
  check_codes "under-declared depth" [ "QT020" ]
    (KC.check ~n_env:4
       (kv
          [ Expr.K_var 0; Expr.K_var 1; Expr.K_binop Expr.B_add ]
          ~consts:[||] ~depth:1 ~max_var:1))

let test_qt021_range () =
  (* a kernel computing 3 for a source expression equal to 2: the
     kernel's interval [3,3] cannot enclose the source's [2,2] *)
  check_codes "wrong function" [ "QT021" ]
    (KC.check ~source:(Expr.Const 2.0) ~n_env:0
       (Expr.compile_unfused (Expr.Const 3.0)));
  (* and the honest kernel passes the same comparison *)
  check_codes "honest kernel" []
    (KC.check ~source:(Expr.Const 2.0) ~n_env:0
       (Expr.compile_unfused (Expr.Const 2.0)))

let test_qt022_malformed () =
  check_codes "unassigned opcode" [ "QT022" ]
    (KC.check ~n_env:4
       (kv [ Expr.K_unknown { op = 30; arg = 7 }; Expr.K_var 0 ] ~consts:[||]
          ~depth:1 ~max_var:0));
  check_codes "constant index out of pool" [ "QT022" ]
    (KC.check ~n_env:4 (kv [ Expr.K_const 3 ] ~consts:[| 1.5 |] ~depth:1 ~max_var:(-1)))

(* ---- compile-time verification hook ---- *)

let test_compile_hook_accepts_valid () =
  KC.install_compile_hook ();
  Fun.protect
    ~finally:(fun () -> Expr.compile_hook := fun _ _ -> ())
    (fun () ->
      (* hook runs on every compile; a valid expression passes *)
      let e = Expr.(Div (Const 5.2, Pow_int (Sub (Var 0, Var 1), 6))) in
      let k = Expr.compile e in
      let v = Expr.eval_kernel k ~env:[| 3.0; 1.0 |] in
      Alcotest.(check (float 1e-12)) "still evaluates" (5.2 /. 64.0) v)

let test_verify_compiled_rejects () =
  let bad =
    kv [ Expr.K_var 0; Expr.K_var 0 ] ~consts:[||] ~depth:2 ~max_var:0
  in
  match KC.verify_compiled (Expr.Var 0) bad with
  | () -> Alcotest.fail "expected Rejected"
  | exception D.Rejected diags -> check_codes "QT018 surfaced" [ "QT018" ] diags

(* ---- peephole equivalence: fused == unfused, never more steps ---- *)

let expr_gen =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [
            map (fun f -> Expr.Const f) (float_range (-10.0) 10.0);
            map (fun v -> Expr.Var v) (int_range 0 3);
          ]
      in
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [
            (2, leaf);
            (2, map2 (fun a b -> Expr.Add (a, b)) sub sub);
            (2, map2 (fun a b -> Expr.Sub (a, b)) sub sub);
            (2, map2 (fun a b -> Expr.Mul (a, b)) sub sub);
            (1, map2 (fun a b -> Expr.Div (a, b)) sub sub);
            (1, map (fun a -> Expr.Neg a) sub);
            ( 1,
              map2 (fun a p -> Expr.Pow_int (a, p)) sub (int_range (-3) 6) );
            (1, map (fun a -> Expr.Sin a) sub);
            (1, map (fun a -> Expr.Cos a) sub);
          ])
    5

let env_gen =
  QCheck.Gen.(array_size (return 4) (float_range (-5.0) 5.0))

let bits = Int64.bits_of_float

let prop_fused_bitwise_identical =
  QCheck.Test.make ~name:"fused kernel is bitwise-identical to unfused"
    ~count:800
    (QCheck.make QCheck.Gen.(pair expr_gen env_gen))
    (fun (e, env) ->
      let fused = Expr.eval_kernel (Expr.compile e) ~env in
      let plain = Expr.eval_kernel (Expr.compile_unfused e) ~env in
      let direct = Expr.eval e ~env in
      Int64.equal (bits fused) (bits plain)
      && Int64.equal (bits fused) (bits direct))

let prop_fused_never_longer =
  QCheck.Test.make ~name:"fusion never increases the step count" ~count:800
    (QCheck.make expr_gen)
    (fun e ->
      Array.length (Expr.kernel_view (Expr.compile e))
      <= Array.length (Expr.kernel_view (Expr.compile_unfused e)))

let prop_compiled_kernels_verify =
  QCheck.Test.make ~name:"every compiled kernel verifies clean" ~count:500
    (QCheck.make expr_gen)
    (fun e ->
      let n_env = 4 in
      KC.check ~source:e ~n_env (Expr.compile e) = []
      && KC.check ~source:e ~n_env (Expr.compile_unfused e) = [])

(* ---- plan linter: sound plans lint clean ---- *)

let test_plans_lint_clean () =
  List.iter
    (fun (name, n) ->
      match Compile_plan.lint (plan_for name n) with
      | [] -> ()
      | diags ->
          Alcotest.failf "%s/%d: %s" name n
            (String.concat "; " (List.map D.to_string diags)))
    [ ("ising-chain", 3); ("ising-chain", 7); ("ising-cycle", 5); ("kitaev", 5) ]

(* ---- plan linter: each code fires on a corrupted plan ---- *)

let base_plan = lazy (plan_for "ising-chain" 5)

let has_code code diags = List.mem code (codes diags)

let check_has msg code diags =
  if not (has_code code diags) then
    Alcotest.failf "%s: expected %s among [%s]" msg code
      (String.concat "; " (codes diags))

let test_qt023_support_coverage () =
  let plan = Lazy.force base_plan in
  let bad =
    { plan with Compile_plan.support = List.tl plan.Compile_plan.support }
  in
  check_has "shorter support" "QT023" (Compile_plan.lint bad)

let test_qt024_skeleton_dims () =
  let plan = Lazy.force base_plan in
  let d = plan.Compile_plan.device in
  let bad =
    {
      plan with
      Compile_plan.device =
        {
          d with
          Compile_plan.channels =
            Array.sub d.Compile_plan.channels 0
              (Array.length d.Compile_plan.channels - 1);
        };
    }
  in
  check_has "missing channel" "QT024" (Compile_plan.lint bad)

(* A plan copy whose skeleton can be damaged in place: the skeleton is
   shared with the original and immutable through the API, so the copy
   goes through marshaling, as a store entry does. *)
let deep_copy (plan : Compile_plan.t) : Compile_plan.t =
  {
    plan with
    Compile_plan.skeleton =
      Marshal.from_string (Marshal.to_string plan.Compile_plan.skeleton []) 0;
  }

(* the greedy solve no longer re-checks that a row names a channel
   once; the gate does *)
let test_qt024_repeated_channel () =
  let plan = Lazy.force base_plan in
  let bad = deep_copy plan in
  let csr = Linear_system.skeleton_csr bad.Compile_plan.skeleton in
  let row_ptr = Qturbo_linalg.Csr.row_ptr csr
  and col_idx = Qturbo_linalg.Csr.col_idx csr in
  let row =
    match
      List.find_opt
        (fun i -> row_ptr.(i + 1) - row_ptr.(i) >= 2)
        (List.init (Qturbo_linalg.Csr.rows csr) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "no row with two entries"
  in
  let cid = col_idx.(row_ptr.(row)) in
  col_idx.(row_ptr.(row) + 1) <- cid;
  let diags = Compile_plan.lint bad in
  check_codes "repeated channel" [ "QT024" ] diags;
  let expected =
    Printf.sprintf "skeleton row %d names channel %d twice" row cid
  in
  if not (List.exists (fun d -> d.D.message = expected) diags) then
    Alcotest.failf "no diagnostic says %S" expected;
  check_codes "the original is untouched" [] (Compile_plan.lint plan)

(* The first prepared solver listed twice: its component's channels,
   variables and id each appear in two components. *)
let test_qt025_partition () =
  let plan = Lazy.force base_plan in
  let d = plan.Compile_plan.device in
  let prepared =
    match d.Compile_plan.prepared with s :: _ as all -> s :: all | [] -> []
  in
  let device = { d with Compile_plan.prepared } in
  let bad = { plan with Compile_plan.device = device } in
  check_codes "duplicated solver" [ "QT025" ] (Compile_plan.lint bad);
  (* the gate every fresh build runs refuses the same defect *)
  match
    Compile_plan.build ~device ~aais:d.Compile_plan.aais
      ~target_shape:plan.Compile_plan.support ()
  with
  | _ -> Alcotest.fail "a fresh build over a broken device part was served"
  | exception D.Rejected diags ->
      check_codes "fresh build rejected" [ "QT025" ] diags

(* A view of two channels (Z0 and X0), one variable each, one component
   each: every pass is clean on it with the [sound] classifications. *)
module PL = Qturbo_analysis.Plan_lint

let comp id =
  { Qturbo_analysis.Structure.id; channel_ids = [ id ]; var_ids = [ id ] }

let linear vars =
  { PL.name = "linear"; class_vars = vars; class_channels = [ 0 ] }

let generic = { PL.name = "generic"; class_vars = [ 1 ]; class_channels = [] }
let sound = [ (comp 0, linear [ 0 ]); (comp 1, generic) ]

let two_channel_view ?(matrix = [| [ (0, 1.0) ]; [ (1, 1.0) ] |]) ?(cols = 2)
    components =
  let z0 = Pauli_string.single 0 Pauli.Z
  and x0 = Pauli_string.single 0 Pauli.X in
  {
    PL.support = [ z0 ];
    rows = [| z0; x0 |];
    matrix = Qturbo_linalg.Csr.of_row_lists ~cols matrix;
    n_channels = 2;
    n_vars = 2;
    channel_terms = [ z0; x0 ];
    components;
  }

let check_messages diags expected =
  List.iter
    (fun expected ->
      if not (List.exists (fun d -> d.D.message = expected) diags) then
        Alcotest.failf "no diagnostic says %S among [%s]" expected
          (String.concat "; " (List.map (fun d -> d.D.message) diags)))
    expected

(* The matrix's own dimensions against the index and the device: one
   row per index row, one column per channel; a column count is not
   reported over an entry already out of range. *)
let test_qt024_matrix_dims () =
  let diags = PL.check (two_channel_view ~matrix:[| [ (0, 1.0) ] |] sound) in
  check_codes "one matrix row short" [ "QT024" ] diags;
  check_messages diags [ "skeleton has 1 matrix rows for 2 index rows" ];
  let diags = PL.check (two_channel_view ~cols:3 sound) in
  check_codes "a column too many" [ "QT024" ] diags;
  check_messages diags [ "skeleton matrix has 3 columns for 2 channels" ];
  let diags =
    PL.check
      (two_channel_view ~cols:3
         ~matrix:[| [ (0, 1.0) ]; [ (1, 1.0); (2, 1.0) ] |]
         sound)
  in
  check_messages diags [ "skeleton row 1 references channel 2 outside [0, 2)" ];
  Alcotest.(check int) "the column count is not reported too" 1
    (List.length diags)

(* A hand-edited payload can still break a classification's arity: a
   linear classification naming a variable outside its component, and
   a const classification over a component with variables. *)
let test_qt026_classification () =
  let const = { PL.name = "const"; class_vars = []; class_channels = [ 1 ] } in
  check_codes "sound view" [] (PL.check (two_channel_view sound));
  let diags =
    PL.check (two_channel_view [ (comp 0, linear [ 1 ]); (comp 1, const) ])
  in
  check_codes "broken classifications" [ "QT026" ] diags;
  check_messages diags
    [
      "linear classification of component 0 names variable 1, which the \
       component does not contain";
      "component 1 is classified const but has 1 variable";
    ]

let () =
  Alcotest.run "lint"
    [
      ( "kernel-verifier",
        [
          Alcotest.test_case "fig3 rydberg kernels clean" `Quick
            test_kernels_clean_rydberg;
          Alcotest.test_case "heisenberg kernels clean" `Quick
            test_kernels_clean_heisenberg;
          Alcotest.test_case "QT017 stack underflow" `Quick test_qt017_underflow;
          Alcotest.test_case "QT018 wrong result arity" `Quick test_qt018_arity;
          Alcotest.test_case "QT019 environment violation" `Quick test_qt019_env;
          Alcotest.test_case "QT020 under-declared depth" `Quick test_qt020_depth;
          Alcotest.test_case "QT021 range unsoundness" `Quick test_qt021_range;
          Alcotest.test_case "QT022 malformed instruction" `Quick
            test_qt022_malformed;
          Alcotest.test_case "compile hook accepts valid" `Quick
            test_compile_hook_accepts_valid;
          Alcotest.test_case "verify_compiled rejects" `Quick
            test_verify_compiled_rejects;
        ] );
      ( "peephole",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fused_bitwise_identical;
            prop_fused_never_longer;
            prop_compiled_kernels_verify;
          ] );
      ( "plan-linter",
        [
          Alcotest.test_case "sound plans lint clean" `Quick
            test_plans_lint_clean;
          Alcotest.test_case "QT023 support coverage" `Quick
            test_qt023_support_coverage;
          Alcotest.test_case "QT024 skeleton dims" `Quick test_qt024_skeleton_dims;
          Alcotest.test_case "QT024 row names a channel twice" `Quick
            test_qt024_repeated_channel;
          Alcotest.test_case "QT024 matrix dimensions" `Quick
            test_qt024_matrix_dims;
          Alcotest.test_case "QT025 partition" `Quick test_qt025_partition;
          Alcotest.test_case "QT026 classification" `Quick
            test_qt026_classification;
        ] );
    ]
