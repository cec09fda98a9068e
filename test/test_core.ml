(* Tests for qturbo.core: term indexing, the global linear system,
   locality decomposition, local solvers, the fixed-variable solver, the
   compiler pipeline (with ablation options), mapping and the
   time-dependent driver. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core

let check_close msg tol a b =
  if Float.abs (a -. b) > tol then Alcotest.failf "%s: %.10g vs %.10g" msg a b

let ising_chain n =
  Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.ising_chain ~n ()) ~s:0.0

let rydberg3 () = Rydberg.build ~spec:Device.aquila_paper ~n:3

(* ---- Term_index ---- *)

let test_term_index_rows () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let idx = Term_index.build ~channels ~target:(ising_chain 3) in
  (* rows: ZZ(01), ZZ(12), ZZ(02), Z0, Z1, Z2, X0..X2, Y0..Y2 = 12 *)
  Alcotest.(check int) "row count" 12 (Term_index.count idx);
  (* identity never indexed *)
  Alcotest.(check (option int)) "identity" None
    (Term_index.row_of idx Pauli_string.identity);
  (* target terms are indexed first *)
  (match Term_index.row_of idx (Pauli_string.two 0 Pauli.Z 1 Pauli.Z) with
  | Some r -> Alcotest.(check bool) "target first" true (r < 5)
  | None -> Alcotest.fail "target term missing");
  (* channel-only term (Y0) present *)
  Alcotest.(check bool) "channel-only term" true
    (Term_index.row_of idx (Pauli_string.single 0 Pauli.Y) <> None)

let test_term_index_bijective () =
  let ryd = rydberg3 () in
  let idx = Term_index.build ~channels:(Aais.channels ryd.Rydberg.aais) ~target:(ising_chain 3) in
  for r = 0 to Term_index.count idx - 1 do
    match Term_index.row_of idx (Term_index.string_of idx r) with
    | Some r' when r' = r -> ()
    | _ -> Alcotest.failf "row %d not bijective" r
  done

(* The index hashes and compares a string's content: the same string
   built in either insertion order finds the same row. *)
let test_term_index_content_keyed () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let pairs = List.init 7 (fun i -> (i, if i mod 2 = 0 then Pauli.Z else Pauli.X)) in
  let forward = Pauli_string.of_list pairs
  and backward = Pauli_string.of_list (List.rev pairs) in
  Alcotest.(check bool) "both orders build equal strings" true
    (Pauli_string.equal forward backward);
  let support = [ Pauli_string.two 0 Pauli.Z 1 Pauli.Z; forward ] in
  let idx = Term_index.build_of_support ~channels ~support in
  Alcotest.(check (option int)) "found from the other order" (Some 1)
    (Term_index.row_of idx backward);
  (* rows in first-occurrence order: the support, then channel effects
     in channel order, each string once, identity never *)
  let expected =
    Array.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc (s, _) ->
            if List.exists (Pauli_string.equal s) acc then acc else acc @ [ s ])
          acc (Instruction.effect_terms c))
      support channels
  in
  Alcotest.(check bool) "first-occurrence order" true
    (List.equal Pauli_string.equal expected
       (Array.to_list (Term_index.strings idx)))

(* ---- Linear_system ---- *)

let test_linear_system_worked_example () =
  (* the §4.1 system: α for both nn vdW channels must be 1, wrap 0,
     detuning α's 1, 2, 1, rabi cos 1 / sin 0 *)
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let sol = Linear_system.solve ls in
  let alpha = sol.Qturbo_linalg.Sparse_solve.x in
  check_close "eps1 zero" 1e-12 0.0 sol.Qturbo_linalg.Sparse_solve.residual_l1;
  (* channel order: vdw(0,1), vdw(0,2), vdw(1,2), det0..2, rabi pairs *)
  let find label =
    let found = ref None in
    Array.iter
      (fun (c : Instruction.channel) ->
        if c.Instruction.label = label then found := Some c.Instruction.cid)
      channels;
    match !found with Some cid -> cid | None -> Alcotest.failf "no channel %s" label
  in
  check_close "vdw01" 1e-9 1.0 alpha.(find "vdw(0,1)");
  check_close "vdw12" 1e-9 1.0 alpha.(find "vdw(1,2)");
  check_close "vdw02 wrap" 1e-9 0.0 alpha.(find "vdw(0,2)");
  check_close "det0 = alpha4" 1e-9 1.0 alpha.(find "detuning(0)");
  check_close "det1 = alpha5" 1e-9 2.0 alpha.(find "detuning(1)");
  check_close "det2 = alpha6" 1e-9 1.0 alpha.(find "detuning(2)");
  check_close "rabi cos" 1e-9 1.0 alpha.(find "rabi-cos(1)");
  check_close "rabi sin" 1e-9 0.0 alpha.(find "rabi-sin(1)")

let test_linear_system_greedy_matches_dense () =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:5 in
  let channels = Aais.channels ryd.Rydberg.aais in
  let ls = Linear_system.build ~channels ~target:(ising_chain 5) ~t_tar:1.0 in
  let greedy = Linear_system.solve ls in
  let dense = Linear_system.solve_dense ls in
  Alcotest.(check bool) "same solution" true
    (Qturbo_util.Float_cmp.approx_array ~rtol:1e-6 ~atol:1e-8
       greedy.Qturbo_linalg.Sparse_solve.x dense.Qturbo_linalg.Sparse_solve.x)

let test_linear_system_b_tar_scales_with_time () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let ls1 = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let ls2 = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:2.5 in
  Array.iteri
    (fun i b -> check_close "scaled" 1e-12 (2.5 *. b) ls2.Linear_system.b_tar.(i))
    ls1.Linear_system.b_tar

(* The right-hand side is filled from the target's terms; every row must
   hold the bits the per-row [Pauli_sum.coeff] lookup gave it, on rows
   the target names and rows it does not ([-0.0] for a negative t_tar,
   NaN for an infinite one). *)
let test_linear_system_instantiate_matches_row_lookup () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let support =
    Shape.support_of_target
      (Pauli_sum.add (ising_chain 3)
         (Pauli_sum.term 1.0 (Pauli_string.single 0 Pauli.Z)))
  in
  let sk = Linear_system.skeleton ~channels ~support in
  let index = Linear_system.skeleton_index sk in
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun target ->
      List.iter
        (fun t_tar ->
          let ls = Linear_system.instantiate sk ~target ~t_tar in
          Array.iteri
            (fun row b ->
              let expected =
                Pauli_sum.coeff target (Term_index.string_of index row) *. t_tar
              in
              if not (Int64.equal (bits expected) (bits b)) then
                Alcotest.failf "row %d at t_tar %g: %h, expected %h" row t_tar b
                  expected)
            ls.Linear_system.b_tar)
        [ 1.0; 0.25; -1.0; infinity ])
    [
      ising_chain 3;
      (* a subset of the support, plus an identity term no row holds *)
      Pauli_sum.of_list
        [
          (Pauli_string.two 0 Pauli.Z 1 Pauli.Z, -0.75);
          (Pauli_string.single 2 Pauli.X, 3.0);
          (Pauli_string.identity, 0.5);
        ];
    ]

let test_linear_system_residual_metric () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let sol = Linear_system.solve ls in
  check_close "residual of solution" 1e-9 0.0
    (Linear_system.residual_l1 ls ~alpha:sol.Qturbo_linalg.Sparse_solve.x);
  let zero = Array.make (Qturbo_linalg.Csr.cols (Linear_system.csr ls)) 0.0 in
  check_close "residual of zero = ||B||" 1e-9
    (Array.fold_left (fun acc b -> acc +. Float.abs b) 0.0 ls.Linear_system.b_tar)
    (Linear_system.residual_l1 ls ~alpha:zero)

(* The skeleton and the store's check on small devices of every backend,
   over random identity-free supports of producible terms: each matrix
   row holds its term's non-identity channel effects in channel order,
   [built_from] accepts the skeleton, and one stored entry's column or
   value changed in a marshaled copy makes it refuse. *)
let skeleton_devices = Hashtbl.create 32

let skeleton_channels (kind, n) =
  match Hashtbl.find_opt skeleton_devices (kind, n) with
  | Some c -> c
  | None ->
      let module B = Qturbo_backend.Backend in
      let backend, model_name =
        match kind with
        | "rydberg-line" -> (B.rydberg, "ising-chain")
        | "rydberg-plane" -> (B.rydberg, "ising-cycle")
        | "heisenberg" -> (B.heisenberg, "heis-chain")
        | _ -> (B.iontrap, "ising-chain")
      in
      let c = Aais.channels (backend.B.instantiate ~model_name ~n ()).B.aais in
      Hashtbl.add skeleton_devices (kind, n) c;
      c

let prop_skeleton_built_from =
  let gen =
    QCheck.Gen.(
      let* kind =
        oneofl [ "rydberg-line"; "rydberg-plane"; "heisenberg"; "iontrap" ]
      in
      let* n = int_range 2 8 in
      let* keep = float_range 0.0 1.0 in
      let* seed = int_bound 1_000_000 in
      return (kind, n, keep, seed))
  in
  QCheck.Test.make ~name:"skeleton rows are the channel effects; built_from"
    ~count:200
    (QCheck.make
       ~print:(fun (kind, n, keep, seed) ->
         Printf.sprintf "%s n=%d keep=%g seed=%d" kind n keep seed)
       gen)
    (fun (kind, n, keep, seed) ->
      let module Csr = Qturbo_linalg.Csr in
      let channels = skeleton_channels (kind, n) in
      let rng = Random.State.make [| seed |] in
      let producible =
        List.sort_uniq Pauli_string.compare
          (List.concat_map
             (fun c -> List.map fst (Instruction.effect_terms c))
             (Array.to_list channels))
      in
      let support =
        List.filter (fun _ -> Random.State.float rng 1.0 < keep) producible
      in
      let sk = Linear_system.skeleton ~channels ~support in
      let index = Linear_system.skeleton_index sk
      and m = Linear_system.skeleton_csr sk in
      let bits v = Int64.bits_of_float v in
      let same_entries a b =
        List.equal (fun (c, v) (c', v') -> c = c' && bits v = bits v') a b
      in
      let oracle s =
        List.concat_map
          (fun (c : Instruction.channel) ->
            List.filter_map
              (fun (e : Instruction.effect) ->
                if Pauli_string.equal e.pstring s then Some (c.cid, e.coeff)
                else None)
              c.effects)
          (Array.to_list channels)
      in
      let rows_ok =
        Csr.rows m = Term_index.count index
        && Csr.cols m = Array.length channels
        && List.for_all
             (fun r ->
               same_entries (Csr.row_entries m r)
                 (oracle (Term_index.string_of index r)))
             (List.init (Csr.rows m) Fun.id)
      in
      let edited_refused =
        Csr.nnz m = 0
        ||
        let copy : Linear_system.skeleton =
          Marshal.from_string (Marshal.to_string sk []) 0
        in
        let m' = Linear_system.skeleton_csr copy in
        let k = Random.State.int rng (Csr.nnz m') in
        let col_idx = Csr.col_idx m' and values = Csr.values m' in
        if Csr.cols m' > 1 && Random.State.bool rng then
          col_idx.(k) <-
            (col_idx.(k) + 1 + Random.State.int rng (Csr.cols m' - 1))
            mod Csr.cols m'
        else
          values.(k) <- Int64.float_of_bits (Int64.logxor (bits values.(k)) 1L);
        not (Linear_system.built_from ~channels ~support copy)
      in
      rows_ok && Linear_system.built_from ~channels ~support sk && edited_refused)

(* ---- Locality ---- *)

let test_locality_components_rydberg () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let comps =
    Locality.decompose ~channels ~n_vars:(Variable.count ryd.Rydberg.aais.Aais.pool)
  in
  (* positions (3 vdW channels), 3 detunings, 3 rabi pairs = 7 components *)
  Alcotest.(check int) "components" 7 (List.length comps);
  let sizes = List.map (fun c -> List.length c.Locality.channel_ids) comps in
  Alcotest.(check int) "vdW grouped" 3 (List.fold_left Int.max 0 sizes)

let test_locality_global_control_merges () =
  let spec = Device.with_control Device.Global Device.aquila_paper in
  let ryd = Rydberg.build ~spec ~n:4 in
  let channels = Aais.channels ryd.Rydberg.aais in
  let comps =
    Locality.decompose ~channels ~n_vars:(Variable.count ryd.Rydberg.aais.Aais.pool)
  in
  (* positions + one shared detuning + one shared rabi = 3 components *)
  Alcotest.(check int) "three components" 3 (List.length comps)

let test_locality_partition () =
  let ryd = Rydberg.build ~spec:Device.aquila ~n:6 in
  let channels = Aais.channels ryd.Rydberg.aais in
  let n_vars = Variable.count ryd.Rydberg.aais.Aais.pool in
  let comps = Locality.decompose ~channels ~n_vars in
  let all_channels = List.concat_map (fun c -> c.Locality.channel_ids) comps in
  Alcotest.(check int) "channels partitioned" (Array.length channels)
    (List.length (List.sort_uniq Int.compare all_channels))

let test_component_of_channel () =
  let ryd = rydberg3 () in
  let channels = Aais.channels ryd.Rydberg.aais in
  let comps = Locality.decompose ~channels ~n_vars:(Variable.count ryd.Rydberg.aais.Aais.pool) in
  let comp = Locality.component_of_channel comps 0 in
  Alcotest.(check bool) "contains channel" true (List.mem 0 comp.Locality.channel_ids)

(* ---- Local_solver ---- *)

(* The prepared solvers of a device part, one per locality component,
   as a compile builds them. *)
let classified ryd =
  let aais = ryd.Rydberg.aais in
  let device =
    Compile_plan.build_device ~options:Compile_plan.default_options ~aais
  in
  (Aais.channels aais, Aais.variables aais, device.Compile_plan.prepared)

let none = Qturbo_resilience.Supervisor.none

(* The runtime-dynamic solvers whose case [select] accepts. *)
let dynamic_cases select solvers =
  List.filter_map
    (function
      | Compile_plan.Dynamic p ->
          Option.map (fun c -> (p, c)) (select (Local_solver.case p))
      | Compile_plan.Fixed _ -> None)
    solvers

let test_classification_names () =
  let ryd = rydberg3 () in
  let _, _, solvers = classified ryd in
  let count select = List.length (dynamic_cases select solvers) in
  Alcotest.(check int) "one fixed" 1
    (List.length
       (List.filter
          (function
            | Compile_plan.Fixed _ -> true | Compile_plan.Dynamic _ -> false)
          solvers));
  Alcotest.(check int) "three linear" 3
    (count (function Local_solver.Linear _ as c -> Some c | _ -> None));
  Alcotest.(check int) "three polar" 3
    (count (function Local_solver.Polar _ as c -> Some c | _ -> None))

let test_min_time_detuning_case1 () =
  (* paper §5.1 Case 1: Δ/2 · T = 1 with Δ_max = 20 MHz → T = 0.1 µs *)
  let ryd = rydberg3 () in
  let channels, _, solvers = classified ryd in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let alpha = (Linear_system.solve ls).Qturbo_linalg.Sparse_solve.x in
  let times =
    List.map
      (function
        | Compile_plan.Dynamic p ->
            fst (Local_solver.min_time ~sup:none ~alpha p)
        | Compile_plan.Fixed _ -> 0.0)
      solvers
  in
  let sorted = List.sort Float.compare times in
  (match sorted with
  | t_fixed :: rest ->
      check_close "fixed component unconstrained" 1e-12 0.0 t_fixed;
      (match List.sort Float.compare rest with
      | [ a; b; c; d; e; f ] ->
          check_close "det fastest" 1e-9 0.1 a;
          check_close "det 2" 1e-9 0.1 b;
          check_close "det middle (alpha=2)" 1e-9 0.2 c;
          check_close "rabi 1" 1e-9 0.8 d;
          check_close "rabi 2" 1e-9 0.8 e;
          check_close "rabi 3 (bottleneck, paper Case 2)" 1e-9 0.8 f
      | _ -> Alcotest.fail "expected six dynamic components")
  | [] -> Alcotest.fail "no components")

let test_solve_at_detuning () =
  let ryd = rydberg3 () in
  let channels, _, solvers = classified ryd in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let alpha = (Linear_system.solve ls).Qturbo_linalg.Sparse_solve.x in
  List.iter
    (fun (p, var) ->
      let { Local_solver.assignments; eps2 }, _ =
        Local_solver.solve ~sup:none ~alpha ~t_sim:0.8 p
      in
      check_close "eps2" 1e-9 0.0 eps2;
      match assignments with
      | [ (v, value) ] ->
          Alcotest.(check int) "assigns its var" var v;
          (* Δ = 2 α / T: either 2.5 (α=1) or 5.0 (α=2) *)
          Alcotest.(check bool) "value plausible" true
            (Float.abs (value -. 2.5) < 1e-6 || Float.abs (value -. 5.0) < 1e-6)
      | _ -> Alcotest.fail "single assignment expected")
    (dynamic_cases
       (function Local_solver.Linear { var; _ } -> Some var | _ -> None)
       solvers)

let test_solve_at_polar () =
  let ryd = rydberg3 () in
  let channels, _, solvers = classified ryd in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let alpha = (Linear_system.solve ls).Qturbo_linalg.Sparse_solve.x in
  List.iter
    (fun (p, (amp, phase)) ->
      let { Local_solver.assignments; eps2 }, _ =
        Local_solver.solve ~sup:none ~alpha ~t_sim:0.8 p
      in
      check_close "polar exact" 1e-9 0.0 eps2;
      let lookup v = List.assoc v assignments in
      check_close "omega = 2.5 at bottleneck" 1e-6 2.5 (lookup amp);
      check_close "phi = 0" 1e-9 0.0 (lookup phase))
    (dynamic_cases
       (function
         | Local_solver.Polar { amp; phase; _ } -> Some (amp, phase)
         | _ -> None)
       solvers)

let test_solve_at_clamps_out_of_bounds () =
  (* at T shorter than feasible the detuning must clamp to its bound and
     report nonzero eps2 *)
  let ryd = rydberg3 () in
  let channels, vars, solvers = classified ryd in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let alpha = (Linear_system.solve ls).Qturbo_linalg.Sparse_solve.x in
  let total_eps = ref 0.0 in
  List.iter
    (fun (p, ()) ->
      let { Local_solver.eps2; assignments }, _ =
        Local_solver.solve ~sup:none ~alpha ~t_sim:0.01 p
      in
      List.iter
        (fun (v, value) ->
          Alcotest.(check bool) "in bounds" true
            (Qturbo_optim.Bounds.contains vars.(v).Variable.bound value))
        assignments;
      total_eps := !total_eps +. eps2)
    (dynamic_cases
       (function Local_solver.Linear _ -> Some () | _ -> None)
       solvers);
  Alcotest.(check bool) "clamping reported" true (!total_eps > 0.1)

let test_generic_solver_case3 () =
  (* paper §5.1 Case 3: cos(φ)·T = 1 has no time-critical variable; the
     generic path must find T = 1 with φ = 0 *)
  let pool = Variable.create_pool () in
  let phi =
    Variable.fresh pool ~name:"phi" ~kind:Variable.Runtime_dynamic
      ~lo:(-.Float.pi) ~hi:Float.pi ~init:0.3 ()
  in
  let channel =
    Instruction.channel_of_expr ~cid:0 ~label:"cos-only"
      ~expr:Expr.(Cos (Var phi.Variable.id))
      ~effects:[ { Instruction.pstring = Pauli_string.single 0 Pauli.X; coeff = 1.0 } ]
      ~hint:Instruction.Hint_generic
  in
  let channels = [| channel |] in
  let vars = Variable.all pool in
  let comps = Locality.decompose ~channels ~n_vars:1 in
  match comps with
  | [ comp ] ->
      let p = Local_solver.prepare ~vars ~channels comp in
      Alcotest.(check bool) "generic" true
        (match Local_solver.case p with
        | Local_solver.Generic _ -> true
        | _ -> false);
      let alpha = [| 1.0 |] in
      let t, _ = Local_solver.min_time ~sup:none ~alpha p in
      check_close "T = 1" 1e-3 1.0 t;
      let { Local_solver.assignments; eps2 }, _ =
        Local_solver.solve ~sup:none ~alpha ~t_sim:1.001 p
      in
      Alcotest.(check bool) "small residual" true (eps2 < 1e-3);
      (match assignments with
      | [ (_, phi_val) ] ->
          Alcotest.(check bool) "phi near zero" true (Float.abs phi_val < 0.1)
      | _ -> Alcotest.fail "one assignment expected")
  | _ -> Alcotest.fail "one component expected"

let test_const_component () =
  (* a constant channel pins T directly *)
  let channel =
    Instruction.channel_of_expr ~cid:0 ~label:"const"
      ~expr:(Expr.Const 2.0)
      ~effects:[ { Instruction.pstring = Pauli_string.single 0 Pauli.Z; coeff = 1.0 } ]
      ~hint:Instruction.Hint_generic
  in
  let channels = [| channel |] in
  let vars = [||] in
  let comps = Locality.decompose ~channels ~n_vars:0 in
  match comps with
  | [ comp ] ->
      (* the generic override leaves a variable-free component const *)
      let p = Local_solver.prepare ~generic:true ~vars ~channels comp in
      Alcotest.(check bool) "const" true
        (match Local_solver.case p with
        | Local_solver.Const _ -> true
        | _ -> false);
      check_close "T = alpha / k" 1e-12 3.0
        (fst (Local_solver.min_time ~sup:none ~alpha:[| 6.0 |] p))
  | _ -> Alcotest.fail "one component expected"

(* ---- Fixed_solver ---- *)

(* The runtime-fixed component of a Rydberg device, prepared. *)
let prepared_positions ryd =
  let channels, _, solvers = classified ryd in
  match
    List.filter_map
      (function
        | Compile_plan.Fixed p -> Some p | Compile_plan.Dynamic _ -> None)
      solvers
  with
  | [ p ] -> (channels, Fixed_solver.component p, p)
  | _ -> Alcotest.fail "one position component expected"

let test_fixed_solver_positions () =
  let ryd = rydberg3 () in
  let channels, _, p = prepared_positions ryd in
  let ls = Linear_system.build ~channels ~target:(ising_chain 3) ~t_tar:1.0 in
  let alpha = (Linear_system.solve ls).Qturbo_linalg.Sparse_solve.x in
  let { Fixed_solver.assignments; eps2 }, _ =
    Fixed_solver.solve ~sup:none ~alpha ~t_sim:0.8 p
  in
  Alcotest.(check bool) "small residual" true (eps2 < 0.05);
  let lookup v = List.assoc v.Variable.id assignments in
  check_close "x0 pinned" 1e-9 0.0 (lookup ryd.Rydberg.xs.(0));
  check_close "x1 = 7.46" 0.05 7.4614 (Float.abs (lookup ryd.Rydberg.xs.(1)));
  check_close "x2 = 14.92" 0.1 14.9229 (Float.abs (lookup ryd.Rydberg.xs.(2)))

let test_fixed_solver_rejects_bad_time () =
  let ryd = rydberg3 () in
  let channels, comp, p = prepared_positions ryd in
  Alcotest.check_raises "t<=0"
    (Invalid_argument
       (Printf.sprintf "Fixed_solver.solve: t_sim <= 0 (component %d)"
          comp.Locality.id))
    (fun () ->
      ignore
        (Fixed_solver.solve ~sup:none
           ~alpha:(Array.make (Array.length channels) 0.0)
           ~t_sim:0.0 p))

(* ---- Fixed_solver magnitude pre-fit ---- *)

(* A synthetic runtime-fixed component: one channel per expression over
   the given variables ([(lo, hi, init)]; lo = hi pins). *)
let synthetic vars_spec exprs =
  let pool = Variable.create_pool () in
  let vars =
    Array.of_list
      (List.mapi
         (fun i (lo, hi, init) ->
           Variable.fresh pool ~name:(Printf.sprintf "q%d" i)
             ~kind:Variable.Runtime_fixed ~lo ~hi ~init ())
         vars_spec)
  in
  let channels =
    Array.of_list
      (List.mapi
         (fun cid expr ->
           Instruction.channel_of_expr ~cid ~label:(Printf.sprintf "c%d" cid) ~expr
             ~effects:
               [ { Instruction.pstring = Pauli_string.single cid Pauli.Z; coeff = 1.0 } ]
             ~hint:Instruction.Hint_fixed)
         exprs)
  in
  match Locality.decompose ~channels ~n_vars:(Array.length vars) with
  | [ comp ] -> (vars, channels, comp)
  | _ -> Alcotest.fail "one component expected"

let synthetic_degree vars_spec exprs =
  let vars, channels, comp = synthetic vars_spec exprs in
  Fixed_solver.degree (Fixed_solver.prepare ~vars ~channels comp)

let test_prefit_degree_detection () =
  let degree ryd =
    let _, _, p = prepared_positions ryd in
    Fixed_solver.degree p
  in
  let line = Device.aquila_paper in
  let plane = Device.with_geometry Device.Plane line in
  Alcotest.(check (option int)) "line device" (Some (-6))
    (degree (Rydberg.build ~spec:line ~n:5));
  Alcotest.(check (option int)) "plane device" (Some (-6))
    (degree (Rydberg.build ~spec:plane ~n:6));
  let free = (-10.0, 10.0, 1.0) and at_zero = (0.0, 0.0, 0.0)
  and at_two = (2.0, 2.0, 2.0) in
  let x = Expr.Var 0 and y = Expr.Var 1 in
  Alcotest.(check (option int)) "pinned at 0.0 scales" (Some 2)
    (synthetic_degree [ free; at_zero ]
       Expr.[ Const 3.0 * Pow_int (x - y, 2); Mul (x, y) ]);
  Alcotest.(check (option int)) "mixed degrees" None
    (synthetic_degree [ free; free ]
       Expr.[ Pow_int (x, 2); Pow_int (x - y, 3) ]);
  Alcotest.(check (option int)) "sum of unequal degrees" None
    (synthetic_degree [ free ] Expr.[ Pow_int (x, 2) + x ]);
  Alcotest.(check (option int)) "pinned elsewhere is a constant" None
    (synthetic_degree [ free; at_two ] Expr.[ Pow_int (x - y, 2) ]);
  Alcotest.(check (option int)) "sine of a coordinate" None
    (synthetic_degree [ free ] Expr.[ Sin x * Pow_int (x, 2) ]);
  Alcotest.(check (option int)) "degree-0 row" None
    (synthetic_degree [ free; free ] Expr.[ x / y; Pow_int (x, 2) ]);
  Alcotest.(check (option int)) "every row degree 0" None
    (synthetic_degree [ free; free ] Expr.[ x / y ])

(* Rows c_i·x^d over one free coordinate starting at x = 1, so that
   a_i = row_i(x_init)·T = c_i·T. *)
let monomial_rows ~d cs =
  synthetic [ (-1e6, 1e6, 1.0) ]
    (List.map (fun c -> Expr.(Const c * Pow_int (Var 0, d))) cs)

(* The cost the search minimises, evaluated as the solver does: rows at
   s·x_init, scaled by T, minus α, squared and summed in row order. *)
let prefit_cost (channels : Instruction.channel array) ~alpha ~t_sim ls =
  let env = [| exp ls *. 1.0 |] in
  let acc = ref 0.0 in
  Array.iteri
    (fun i ch ->
      let r = (Expr.eval (Instruction.expr ch) ~env *. t_sim) -. alpha.(i) in
      acc := !acc +. (r *. r))
    channels;
  !acc

let search channels ~alpha ~t_sim =
  Qturbo_optim.Scalar.golden_min
    ~f:(prefit_cost channels ~alpha ~t_sim)
    ~lo:(-3.0) ~hi:3.0 ()

(* Over random homogeneous instances the closed form takes no search and
   lands where the search does, at no higher cost.  The search compares
   rounded costs, so near the minimum it stops anywhere inside the band
   of log-scales whose costs are equal to rounding: the cost there is
   f* + κ·δ² with κ = d²·Σ (u·a_i)², and the rounding of a cost sum over
   n rows is at most (n + 9)·ε·(f + Σ α_i²) (each row is a handful of
   correctly rounded operations, and Σ (u·a_i)² ≤ Σ α_i² at the
   minimum).  The log-scales must agree to the search's tolerance
   widened by that band, and the costs to that rounding.  On consistent
   instances (α = u·a exactly) the minimum is sharp and the closed form
   recovers ln u / d to the search's tolerance. *)
let prop_prefit_closed_form_matches_search =
  let gen =
    QCheck.Gen.(
      let* d = oneofl [ -6; -3; 2 ] in
      let* rows = int_range 1 12 in
      let* cs = list_repeat rows (float_range (-2.0) 2.0) in
      let* t_sim = float_range 0.05 5.0 in
      let* consistent = bool in
      let* ls_true = float_range (-2.5) 2.5 in
      let* alphas =
        if consistent then
          return
            (List.map (fun c -> exp (float_of_int d *. ls_true) *. c *. t_sim) cs)
        else list_repeat rows (float_range (-2.0) 2.0)
      in
      return (d, cs, alphas, t_sim, if consistent then Some ls_true else None))
  in
  QCheck.Test.make ~name:"closed-form pre-fit = search on homogeneous rows"
    ~count:300
    (QCheck.make
       ~print:(fun (d, cs, alphas, t, _) ->
         Printf.sprintf "d=%d cs=[%s] alphas=[%s] t=%h" d
           (String.concat ";" (List.map (Printf.sprintf "%h") cs))
           (String.concat ";" (List.map (Printf.sprintf "%h") alphas))
           t)
       gen)
    (fun (d, cs, alphas, t_sim, ls_true) ->
      let vars, channels, comp = monomial_rows ~d cs in
      let alpha = Array.of_list alphas in
      let start =
        Fixed_solver.prefit ~alpha ~t_sim (Fixed_solver.prepare ~vars ~channels comp)
      in
      let a = List.map (fun c -> c *. t_sim) cs in
      let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
      let u =
        List.fold_left2 (fun acc a al -> acc +. (a *. al)) 0.0 a alphas
        /. sum (fun a -> a *. a) a
      in
      let m = search channels ~alpha ~t_sim in
      let ls = start.Fixed_solver.log_scale
      and ls_search = m.Qturbo_optim.Scalar.argmin in
      let tol x = 1e-10 *. Float.max 1.0 (Float.abs x) in
      if not (Float.is_finite u && u > 0.0) then
        (* the search itself, bit for bit *)
        (not start.Fixed_solver.closed_form)
        && Int64.equal (Int64.bits_of_float ls) (Int64.bits_of_float ls_search)
      else
        let cost = prefit_cost channels ~alpha ~t_sim in
        let c_closed = cost ls and c_search = m.Qturbo_optim.Scalar.minimum in
        let rounding =
          float_of_int (List.length cs + 9)
          *. epsilon_float
          *. (c_search +. sum (fun al -> al *. al) alphas)
        in
        let kappa =
          let s_d = exp (float_of_int d *. ls) in
          float_of_int (d * d) *. sum (fun a -> (s_d *. a) *. (s_d *. a)) a
        in
        let band = sqrt (2.0 *. rounding /. kappa) in
        start.Fixed_solver.closed_form
        && start.Fixed_solver.failures = []
        && c_closed <= c_search +. rounding
        && Float.abs (ls -. ls_search) <= tol ls_search +. band
        &&
        match ls_true with
        | Some ls_true ->
            Float.abs (ls -. ls_true) <= tol ls_true
            && Float.abs (ls -. ls_search) <= tol ls_search
        | None -> true)

(* α = 0 on every row, or α anti-correlated with the rows: u* ≤ 0 has
   no real root, so the pre-fit is the golden-section search, bit for
   bit, on homogeneous rows too *)
let test_prefit_falls_back_to_search () =
  let cs = [ 1.0; 0.5; 2.0 ] and t_sim = 0.8 in
  let vars, channels, comp = monomial_rows ~d:(-6) cs in
  let p = Fixed_solver.prepare ~vars ~channels comp in
  let check what alpha =
    let start = Fixed_solver.prefit ~alpha ~t_sim p in
    let m = search channels ~alpha ~t_sim in
    Alcotest.(check bool) (what ^ ": search") false start.Fixed_solver.closed_form;
    Alcotest.(check int64) (what ^ ": the search's argmin")
      (Int64.bits_of_float m.Qturbo_optim.Scalar.argmin)
      (Int64.bits_of_float start.Fixed_solver.log_scale)
  in
  check "alpha = 0" [| 0.0; 0.0; 0.0 |];
  check "anti-correlated" (Array.of_list (List.map (fun c -> -3.0 *. c) cs));
  (* and the same on a Rydberg device, whose rows are homogeneous *)
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:4 in
  let channels, comp, p = prepared_positions ryd in
  let zeros = Array.make (Array.length channels) 0.0 in
  Alcotest.(check bool) "rydberg, alpha = 0: search" false
    (Fixed_solver.prefit ~alpha:zeros ~t_sim p).Fixed_solver.closed_form;
  let env = Variable.initial_env ryd.Rydberg.aais.Aais.pool in
  let anti = Array.copy zeros in
  List.iter
    (fun cid -> anti.(cid) <- -.Instruction.eval_channel channels.(cid) ~env)
    comp.Locality.channel_ids;
  Alcotest.(check bool) "rydberg, anti-correlated: search" false
    (Fixed_solver.prefit ~alpha:anti ~t_sim p).Fixed_solver.closed_form;
  Alcotest.(check bool) "rydberg, correlated: closed form" true
    (Fixed_solver.prefit ~alpha:(Array.map Float.neg anti) ~t_sim p)
      .Fixed_solver.closed_form

(* ---- Compiler ---- *)

let compile_ising3 ?options () =
  let ryd = rydberg3 () in
  (ryd, Compiler.compile ?options ~aais:ryd.Rydberg.aais ~target:(ising_chain 3) ~t_tar:1.0 ())

let test_compiler_worked_example () =
  let ryd, r = compile_ising3 () in
  check_close "T_sim" 1e-9 0.8 r.Compiler.t_sim;
  let env = r.Compiler.env in
  check_close "omega" 1e-6 2.5 env.(ryd.Rydberg.omegas.(0).Variable.id);
  check_close "phi" 1e-9 0.0 env.(ryd.Rydberg.phis.(0).Variable.id);
  (* middle detuning 5 MHz, outer about 2.5 (refined slightly above) *)
  check_close "delta middle" 0.02 5.0 env.(ryd.Rydberg.deltas.(1).Variable.id);
  Alcotest.(check bool) "delta outer refined upward" true
    (let d = env.(ryd.Rydberg.deltas.(0).Variable.id) in
     d >= 2.5 && d <= 2.6);
  Alcotest.(check bool) "relative error below 1%" true (r.Compiler.relative_error < 1.0);
  Alcotest.(check (list string)) "no warnings" [] r.Compiler.warnings

let test_compiler_theorem1_bound () =
  let _, r = compile_ising3 () in
  Alcotest.(check bool) "bound dominates error" true
    (r.Compiler.theorem1_bound >= r.Compiler.error_l1 -. 1e-9)

let test_compiler_refine_improves () =
  let options = { Compiler.default_options with Compiler.refine = false } in
  let _, r_plain = compile_ising3 ~options () in
  let _, r_refined = compile_ising3 () in
  Alcotest.(check bool) "refinement reduces error" true
    (r_refined.Compiler.error_l1 <= r_plain.Compiler.error_l1 +. 1e-12)

let test_compiler_time_opt_ablation () =
  let options = { Compiler.default_options with Compiler.time_opt = false } in
  let _, r_no = compile_ising3 ~options () in
  let _, r_yes = compile_ising3 () in
  Alcotest.(check bool) "padded time longer" true
    (r_no.Compiler.t_sim > r_yes.Compiler.t_sim *. 2.0)

let test_compiler_generic_local_ablation_same_answer () =
  (* the generic LM+bisection path must agree with the analytic patterns *)
  let options =
    { Compiler.default_options with Compiler.generic_local_solver = true }
  in
  let _, r_generic = compile_ising3 ~options () in
  let _, r_analytic = compile_ising3 () in
  check_close "same T" 1e-3 r_analytic.Compiler.t_sim r_generic.Compiler.t_sim;
  Alcotest.(check bool) "similar error" true
    (Float.abs (r_generic.Compiler.error_l1 -. r_analytic.Compiler.error_l1) < 0.01)

let test_compiler_dense_ablation_same_answer () =
  let options = { Compiler.default_options with Compiler.dense_linear_solver = true } in
  let _, r_dense = compile_ising3 ~options () in
  let _, r_greedy = compile_ising3 () in
  check_close "same T" 1e-9 r_greedy.Compiler.t_sim r_dense.Compiler.t_sim;
  check_close "same error" 1e-6 r_greedy.Compiler.error_l1 r_dense.Compiler.error_l1

let test_compiler_t_tar_scales () =
  let ryd = rydberg3 () in
  let r2 =
    Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain 3) ~t_tar:2.0 ()
  in
  (* doubling the target evolution doubles the bottleneck time *)
  check_close "T doubles" 1e-9 1.6 r2.Compiler.t_sim

let test_compiler_rejects_bad_input () =
  let ryd = rydberg3 () in
  Alcotest.check_raises "t_tar" (Invalid_argument "Compiler.compile: t_tar <= 0")
    (fun () ->
      ignore (Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain 3) ~t_tar:0.0 ()));
  Alcotest.check_raises "too many qubits"
    (Invalid_argument "Compiler.compile: target touches qubits outside the AAIS")
    (fun () ->
      ignore (Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain 5) ~t_tar:1.0 ()))

let test_compiler_unreachable_term_rejected () =
  (* a YY term is outside the Rydberg AAIS span: compilation rejects it
     before any solver *)
  let ryd = rydberg3 () in
  let target =
    Pauli_sum.add (ising_chain 3)
      (Pauli_sum.term 1.0 (Pauli_string.two 0 Pauli.Y 1 Pauli.Y))
  in
  (match Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () with
  | exception Qturbo_analysis.Diagnostic.Rejected ds ->
      Alcotest.(check bool) "QT001 reported" true
        (List.exists (fun d -> d.Qturbo_analysis.Diagnostic.code = "QT001") ds)
  | _ -> Alcotest.fail "the compile should reject the YY term")

let test_compiler_heisenberg_exact () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:4 in
  let target =
    Qturbo_models.Model.hamiltonian_at
      (Qturbo_models.Benchmarks.heisenberg_chain ~n:4 ()) ~s:0.0
  in
  let r = Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar:1.0 () in
  check_close "exact compilation" 1e-9 0.0 r.Compiler.relative_error;
  (* bottleneck: two-qubit couplings with bound 1.0 need J·T/bound = 1 µs *)
  check_close "T from two-qubit bound" 1e-9 1.0 r.Compiler.t_sim

let test_compiler_heisenberg_hamiltonian_roundtrip () =
  (* the compiled simulator Hamiltonian times T equals the target times
     t_tar exactly on the Heisenberg AAIS *)
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:3 in
  let target =
    Qturbo_models.Model.hamiltonian_at (Qturbo_models.Benchmarks.kitaev ~n:3 ()) ~s:0.0
  in
  let t_tar = 1.0 in
  let r = Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar () in
  let h_sim = Heisenberg.hamiltonian heis ~env:r.Compiler.env in
  let lhs = Pauli_sum.scale r.Compiler.t_sim h_sim in
  let rhs = Pauli_sum.scale t_tar (Pauli_sum.drop_identity target) in
  Alcotest.(check bool) "H_sim * T_sim = H_tar * T_tar" true
    (Pauli_sum.equal ~tol:1e-9 lhs rhs)

let test_compiler_constraint_iteration () =
  (* a tiny max-extent forces the layout iteration to stretch T *)
  let spec = { Device.aquila_paper with Device.max_extent = 12.0 } in
  let ryd = Rydberg.build ~spec ~n:3 in
  (* atoms must pack within 12 µm: stronger coupling, so T can stay at the
     bottleneck only if the layout fits; either way the result respects
     the constraint or the strict compile refuses it *)
  match
    Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain 3)
      ~t_tar:1.0 ()
  with
  | r ->
      let positions = Rydberg.positions ryd ~env:r.Compiler.env in
      Alcotest.(check (list string)) "fits" []
        (Rydberg.check_layout ~spec positions)
  | exception Qturbo_resilience.Failure.Failed fs ->
      Alcotest.(check bool) "refused by the constraint loop" true
        (List.exists
           (fun (f : Qturbo_resilience.Failure.t) ->
             f.Qturbo_resilience.Failure.site = "constraint-loop"
             && f.Qturbo_resilience.Failure.fatal)
           fs)

(* ---- Mapping ---- *)

let test_mapping_identity_inverse () =
  let m = Mapping.identity ~n:5 in
  Alcotest.(check (array int)) "inverse of identity" m (Mapping.inverse m)

let test_mapping_validates () =
  Alcotest.(check bool) "perm" true (Mapping.is_permutation [| 2; 0; 1 |]);
  Alcotest.(check bool) "dup" false (Mapping.is_permutation [| 0; 0 |]);
  Alcotest.check_raises "of_array" (Invalid_argument "Mapping.of_array: not a permutation")
    (fun () -> ignore (Mapping.of_array [| 1; 1 |]))

let test_mapping_greedy_unshuffles_chain () =
  (* chain 0-1-2-3 relabelled as 2-0-3-1: greedy BFS must recover a chain
     order so the mapped Hamiltonian has nearest-neighbour couplings *)
  let shuffled =
    Pauli_sum.of_list
      [
        (Pauli_string.two 2 Pauli.Z 0 Pauli.Z, 1.0);
        (Pauli_string.two 0 Pauli.Z 3 Pauli.Z, 1.0);
        (Pauli_string.two 3 Pauli.Z 1 Pauli.Z, 1.0);
      ]
  in
  let m = Mapping.greedy_chain ~target:shuffled ~n:4 in
  let mapped = Mapping.apply m shuffled in
  List.iter
    (fun (s, _) ->
      match Pauli_string.support s with
      | [ i; j ] ->
          Alcotest.(check int) "adjacent after mapping" 1 (abs (i - j))
      | _ -> Alcotest.fail "pair expected")
    (Pauli_sum.terms mapped)

let test_mapping_apply_preserves_coeffs () =
  let h = ising_chain 4 in
  let m = Mapping.of_array [| 3; 1; 0; 2 |] in
  let mapped = Mapping.apply m h in
  Alcotest.(check (float 1e-12)) "norm preserved" (Pauli_sum.norm1 h)
    (Pauli_sum.norm1 mapped);
  Alcotest.(check (float 1e-12)) "zz relocated" 1.0
    (Pauli_sum.coeff mapped (Pauli_string.two 3 Pauli.Z 1 Pauli.Z))

(* ---- Td_compiler ---- *)

let test_td_static_matches_compiler () =
  (* a static model through the TD driver with one segment behaves like
     the plain compiler *)
  let ryd = rydberg3 () in
  let model = Qturbo_models.Benchmarks.ising_chain ~n:3 () in
  let td =
    Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:1 ()
  in
  check_close "same T" 1e-3 0.8 td.Td_compiler.t_sim;
  Alcotest.(check int) "one segment" 1 (List.length td.Td_compiler.segments)

let test_td_mis_chain () =
  let spec = { Device.aquila_paper with Device.max_extent = 1e6 } in
  let ryd = Rydberg.build ~spec ~n:4 in
  let model = Qturbo_models.Benchmarks.mis_chain ~n:4 () in
  let td =
    Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:4 ()
  in
  Alcotest.(check int) "four segments" 4 (List.length td.Td_compiler.segments);
  Alcotest.(check bool) "reasonable error" true (td.Td_compiler.relative_error < 10.0);
  (* fixed layout shared: all segments agree on positions *)
  (match td.Td_compiler.segments with
  | first :: rest ->
      let pos env = Rydberg.positions ryd ~env in
      let p0 = pos first.Td_compiler.env in
      List.iter
        (fun (seg : Td_compiler.segment_result) ->
          let p = pos seg.Td_compiler.env in
          Array.iteri
            (fun i (x, y) ->
              let x', y' = p.(i) in
              check_close "shared x" 1e-9 x x';
              check_close "shared y" 1e-9 y y')
            p0)
        rest
  | [] -> Alcotest.fail "no segments");
  Alcotest.(check bool) "total time = sum of segments" true
    (Float.abs
       (td.Td_compiler.t_sim
       -. List.fold_left
            (fun acc (s : Td_compiler.segment_result) -> acc +. s.Td_compiler.duration)
            0.0 td.Td_compiler.segments)
    < 1e-9)

let test_td_rejects_bad_args () =
  let ryd = rydberg3 () in
  let model = Qturbo_models.Benchmarks.ising_chain ~n:3 () in
  let expect_qt016 name f =
    match f () with
    | exception Qturbo_analysis.Diagnostic.Rejected [ d ] ->
        Alcotest.(check string) (name ^ " code") "QT016" d.Qturbo_analysis.Diagnostic.code
    | exception e ->
        Alcotest.failf "%s: expected Rejected [QT016], got %s" name
          (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: expected Rejected [QT016], got a result" name
  in
  expect_qt016 "segments = 0" (fun () ->
      Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:0 ());
  expect_qt016 "segments < 0" (fun () ->
      Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:(-3) ());
  expect_qt016 "nan t_tar" (fun () ->
      Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:Float.nan ~segments:2 ());
  expect_qt016 "infinite t_tar" (fun () ->
      Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:Float.infinity ~segments:2 ());
  (* the finite-nonpositive message is unchanged — callers pin it *)
  Alcotest.check_raises "t_tar" (Invalid_argument "Td_compiler.compile: t_tar <= 0")
    (fun () ->
      ignore (Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:0.0 ~segments:2 ()));
  (* the back end itself refuses an empty segment list *)
  let plan =
    Compiler.build ~aais:ryd.Rydberg.aais
      ~target_shape:(Compiler.support_of_target (ising_chain 3)) ()
  in
  Alcotest.check_raises "no segments"
    (Invalid_argument "Compile_plan.solve_segments: no segments") (fun () ->
      ignore (Compiler.solve_segments ~plan ~t_tar:1.0 []));
  (* a target wider than the register is refused with the static path's
     message at every segment count *)
  let spec = { Device.aquila_paper with Device.max_extent = 1e6 } in
  let ryd4 = Rydberg.build ~spec ~n:4 in
  let mis5 = Qturbo_models.Benchmarks.mis_chain ~n:5 () in
  List.iter
    (fun segments ->
      Alcotest.check_raises
        (Printf.sprintf "mis-chain n=5 on 4 atoms, segments=%d" segments)
        (Invalid_argument "Compiler.compile: target touches qubits outside the AAIS")
        (fun () ->
          ignore
            (Td_compiler.compile ~aais:ryd4.Rydberg.aais ~model:mis5 ~t_tar:1.0
               ~segments ())))
    [ 1; 4 ]

(* ---- Extract ---- *)

let test_extract_rydberg_pulse () =
  let ryd, r = compile_ising3 () in
  let pulse = Extract.rydberg_pulse ryd ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
  Alcotest.(check (list string)) "executable" [] (Pulse.within_limits pulse);
  check_close "duration" 1e-9 0.8 (Pulse.rydberg_duration pulse);
  Alcotest.(check int) "atoms" 3 (Array.length pulse.Pulse.positions)

let test_extract_heisenberg_pulse () =
  let heis = Heisenberg.build ~spec:Device.heisenberg_default ~n:3 in
  let target = ising_chain 3 in
  let r = Compiler.compile ~aais:heis.Heisenberg.aais ~target ~t_tar:1.0 () in
  let pulse = Extract.heisenberg_pulse heis ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
  match Pulse.heisenberg_segment_hamiltonians pulse with
  | [ (h, t) ] ->
      Alcotest.(check bool) "implements the target" true
        (Pauli_sum.equal ~tol:1e-9 (Pauli_sum.scale t h)
           (Pauli_sum.drop_identity target))
  | _ -> Alcotest.fail "one segment expected"

(* ---- qcheck ---- *)

let prop_compiler_error_bounded_by_theorem1 =
  QCheck.Test.make ~name:"Theorem 1 bound holds across sizes" ~count:8
    QCheck.(int_range 3 10) (fun n ->
      let spec = { Device.aquila_paper with Device.max_extent = 1e6 } in
      let ryd = Rydberg.build ~spec ~n in
      let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain n) ~t_tar:1.0 () in
      r.Compiler.theorem1_bound >= r.Compiler.error_l1 -. 1e-9)

let prop_compiled_pulse_within_limits =
  QCheck.Test.make ~name:"compiled pulses respect dynamic device limits" ~count:8
    QCheck.(int_range 3 10) (fun n ->
      let spec = { Device.aquila_paper with Device.max_extent = 1e6 } in
      let ryd = Rydberg.build ~spec ~n in
      let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target:(ising_chain n) ~t_tar:1.0 () in
      let pulse = Extract.rydberg_pulse ryd ~env:r.Compiler.env ~t_sim:r.Compiler.t_sim in
      (* the relaxed-extent spec leaves only amplitude/time limits *)
      List.for_all
        (fun v -> String.length v < 7 || String.sub v 0 6 <> "segmen")
        (Pulse.within_limits pulse))

let () =
  Alcotest.run "core"
    [
      ( "term_index",
        [
          Alcotest.test_case "rows" `Quick test_term_index_rows;
          Alcotest.test_case "bijective" `Quick test_term_index_bijective;
          Alcotest.test_case "content-keyed, first-occurrence rows" `Quick
            test_term_index_content_keyed;
        ] );
      ( "linear_system",
        [
          Alcotest.test_case "worked example (§4.1)" `Quick test_linear_system_worked_example;
          Alcotest.test_case "greedy matches dense" `Quick test_linear_system_greedy_matches_dense;
          Alcotest.test_case "B scales with t_tar" `Quick test_linear_system_b_tar_scales_with_time;
          Alcotest.test_case "residual metric" `Quick test_linear_system_residual_metric;
          Alcotest.test_case "B filled from the target's terms" `Quick
            test_linear_system_instantiate_matches_row_lookup;
          QCheck_alcotest.to_alcotest prop_skeleton_built_from;
        ] );
      ( "locality",
        [
          Alcotest.test_case "rydberg components" `Quick test_locality_components_rydberg;
          Alcotest.test_case "global control merges" `Quick test_locality_global_control_merges;
          Alcotest.test_case "partition" `Quick test_locality_partition;
          Alcotest.test_case "lookup" `Quick test_component_of_channel;
        ] );
      ( "local_solver",
        [
          Alcotest.test_case "classification" `Quick test_classification_names;
          Alcotest.test_case "min times (§5.1 cases)" `Quick test_min_time_detuning_case1;
          Alcotest.test_case "detuning solve" `Quick test_solve_at_detuning;
          Alcotest.test_case "polar solve" `Quick test_solve_at_polar;
          Alcotest.test_case "clamping" `Quick test_solve_at_clamps_out_of_bounds;
          Alcotest.test_case "generic Case 3" `Quick test_generic_solver_case3;
          Alcotest.test_case "const component" `Quick test_const_component;
        ] );
      ( "fixed_solver",
        [
          Alcotest.test_case "positions (§5.2)" `Quick test_fixed_solver_positions;
          Alcotest.test_case "bad time" `Quick test_fixed_solver_rejects_bad_time;
          Alcotest.test_case "pre-fit degree detection" `Quick
            test_prefit_degree_detection;
          QCheck_alcotest.to_alcotest prop_prefit_closed_form_matches_search;
          Alcotest.test_case "pre-fit falls back to the search" `Quick
            test_prefit_falls_back_to_search;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "worked example end-to-end" `Quick test_compiler_worked_example;
          Alcotest.test_case "theorem 1 bound" `Quick test_compiler_theorem1_bound;
          Alcotest.test_case "refinement improves" `Quick test_compiler_refine_improves;
          Alcotest.test_case "time-opt ablation" `Quick test_compiler_time_opt_ablation;
          Alcotest.test_case "dense-solver ablation" `Quick test_compiler_dense_ablation_same_answer;
          Alcotest.test_case "generic-local ablation" `Quick
            test_compiler_generic_local_ablation_same_answer;
          Alcotest.test_case "t_tar scaling" `Quick test_compiler_t_tar_scales;
          Alcotest.test_case "input validation" `Quick test_compiler_rejects_bad_input;
          Alcotest.test_case "unreachable terms" `Quick test_compiler_unreachable_term_rejected;
          Alcotest.test_case "heisenberg exact" `Quick test_compiler_heisenberg_exact;
          Alcotest.test_case "heisenberg roundtrip" `Quick test_compiler_heisenberg_hamiltonian_roundtrip;
          Alcotest.test_case "constraint iteration" `Quick test_compiler_constraint_iteration;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "identity" `Quick test_mapping_identity_inverse;
          Alcotest.test_case "validation" `Quick test_mapping_validates;
          Alcotest.test_case "greedy unshuffles" `Quick test_mapping_greedy_unshuffles_chain;
          Alcotest.test_case "coefficients preserved" `Quick test_mapping_apply_preserves_coeffs;
        ] );
      ( "td_compiler",
        [
          Alcotest.test_case "static single segment" `Quick test_td_static_matches_compiler;
          Alcotest.test_case "mis chain" `Quick test_td_mis_chain;
          Alcotest.test_case "validation" `Quick test_td_rejects_bad_args;
        ] );
      ( "extract",
        [
          Alcotest.test_case "rydberg pulse" `Quick test_extract_rydberg_pulse;
          Alcotest.test_case "heisenberg pulse" `Quick test_extract_heisenberg_pulse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compiler_error_bounded_by_theorem1; prop_compiled_pulse_within_limits ]
      );
    ]
