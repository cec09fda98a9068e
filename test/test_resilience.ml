(* Tests for qturbo.resilience: the fault-spec parser, the escalation
   ladder (per-stage recovery, classification, total failure, deadlines),
   multistart's per-start exception containment, and the compile-level
   strict / best-effort contract — including bitwise determinism of the
   degraded results across domain counts. *)

open Qturbo_optim
open Qturbo_resilience
open Qturbo_aais

let bits = Int64.bits_of_float

let check_bits_array msg a b =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: index %d differs: %h vs %h" msg i x b.(i))
    a

(* ---- Fault spec parser ---- *)

let test_fault_parse () =
  (match Fault.parse "lm=nan,fixed-solve#2=deadline,*=budget" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok spec ->
      Alcotest.(check int) "clauses" 3 (List.length spec);
      Alcotest.(check bool)
        "first clause wins" true
        (Fault.fires spec ~site:"lm" ~component:0 = Some Fault.Nan);
      Alcotest.(check bool)
        "component filter matches" true
        (Fault.fires spec ~site:"fixed-solve" ~component:2
        = Some Fault.Deadline);
      Alcotest.(check bool)
        "component filter excludes" true
        (Fault.fires spec ~site:"fixed-solve" ~component:1
        = Some Fault.Budget);
      Alcotest.(check bool)
        "wildcard catches the rest" true
        (Fault.fires spec ~site:"refine" ~component:(-1) = Some Fault.Budget));
  (match Fault.parse "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty spec must parse to empty");
  (match Fault.parse "bogus-site=nan" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown site must be rejected");
  match Fault.parse "lm=frobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must be rejected"

(* ---- Escalation ladder ---- *)

(* tiny consistent least-squares problem; LM nails it in a few steps *)
let residual2 x = [| x.(0) -. 1.0; x.(1) -. 2.0; x.(0) +. x.(1) -. 3.0 |]
let x0_2 () = [| 0.0; 0.0 |]

let test_supervised_matches_raw () =
  let raw = Levenberg_marquardt.minimize residual2 (x0_2 ()) in
  let o = Supervisor.solve Supervisor.none ~site:"local-solve" ~component:0
      residual2 (x0_2 ())
  in
  Alcotest.(check string) "first stage wins" "lm" o.Supervisor.stage;
  Alcotest.(check (list pass)) "no failures" [] o.Supervisor.failures;
  check_bits_array "iterate" raw.Objective.x o.Supervisor.report.Objective.x;
  Alcotest.(check bool) "cost bits" true
    (Int64.equal (bits raw.Objective.cost)
       (bits o.Supervisor.report.Objective.cost))

let class_of (f : Failure.t) = f.Failure.class_

let test_ladder_recovers_per_stage () =
  (* one stage at a time is faulted; the next stage recovers and the
     failure record carries the right class *)
  let cases =
    [
      ("lm=nan", "lm-retry", [ Failure.Numeric_invalid ]);
      ( "lm=nan,lm-retry=singular",
        "nelder-mead",
        [ Failure.Numeric_invalid; Failure.Singular_jacobian ] );
      ( "lm=budget,lm-retry=budget,nelder-mead=budget",
        "multistart",
        [
          Failure.Budget_exhausted; Failure.Budget_exhausted;
          Failure.Budget_exhausted;
        ] );
    ]
  in
  List.iter
    (fun (spec, want_stage, want_classes) ->
      let sup = Supervisor.make ~faults:(Fault.parse_exn spec) () in
      let o =
        Supervisor.solve sup ~site:"local-solve" ~component:0 residual2
          (x0_2 ())
      in
      Alcotest.(check string) (spec ^ ": stage") want_stage o.Supervisor.stage;
      Alcotest.(check bool) (spec ^ ": recovered") true (Supervisor.recovered o);
      Alcotest.(check bool)
        (spec ^ ": finite cost") true
        (Float.is_finite o.Supervisor.report.Objective.cost);
      Alcotest.(check (list pass))
        (spec ^ ": classes") want_classes
        (List.map class_of o.Supervisor.failures);
      List.iter
        (fun (f : Failure.t) ->
          Alcotest.(check bool) (spec ^ ": non-fatal") false f.Failure.fatal)
        o.Supervisor.failures)
    cases

let test_ladder_total_failure () =
  let sup = Supervisor.make ~faults:(Fault.parse_exn "*=nan") () in
  let o =
    Supervisor.solve sup ~site:"local-solve" ~component:0 residual2 (x0_2 ())
  in
  Alcotest.(check bool) "failed" true (Supervisor.failed o);
  Alcotest.(check string) "no stage" "" o.Supervisor.stage;
  Alcotest.(check int) "all four stages recorded" 4
    (List.length o.Supervisor.failures);
  let rec last = function [ x ] -> x | _ :: r -> last r | [] -> assert false in
  Alcotest.(check bool) "last fatal" true (last o.Supervisor.failures).Failure.fatal;
  List.iteri
    (fun i (f : Failure.t) ->
      if i < 3 then
        Alcotest.(check bool) "earlier non-fatal" false f.Failure.fatal)
    o.Supervisor.failures

let test_deadline_in_past () =
  let sup = Supervisor.make ~deadline_seconds:(-1.0) () in
  let o =
    Supervisor.solve sup ~site:"local-solve" ~component:0 residual2 (x0_2 ())
  in
  Alcotest.(check bool) "failed" true (Supervisor.failed o);
  match o.Supervisor.failures with
  | [ f ] ->
      Alcotest.(check bool) "fatal" true f.Failure.fatal;
      Alcotest.(check string) "class" "deadline-expired"
        (Failure.class_name f.Failure.class_)
  | fs -> Alcotest.failf "expected one record, got %d" (List.length fs)

let test_ladder_deterministic () =
  (* the jittered restart and multistart draws come from a (site,
     component)-seeded stream: two identical calls agree bitwise *)
  let run () =
    let sup = Supervisor.make ~faults:(Fault.parse_exn "lm=nan") () in
    Supervisor.solve sup ~site:"fixed-solve" ~component:3 residual2 (x0_2 ())
  in
  let a = run () and b = run () in
  Alcotest.(check string) "stage" a.Supervisor.stage b.Supervisor.stage;
  check_bits_array "iterate" a.Supervisor.report.Objective.x
    b.Supervisor.report.Objective.x

(* ---- Multistart per-start containment (injected failures) ---- *)

let test_multistart_injected_failures () =
  (* starts whose sampled point lands in x > 0 raise; the winner must be
     the best surviving start, identically at any domain count *)
  let target = -2.0 in
  let solve x0 =
    if x0.(0) > 0.0 then failwith "injected per-start failure"
    else
      (Levenberg_marquardt.minimize (fun x -> [| x.(0) -. target |]) x0, ())
  in
  let search ~domains =
    Multistart.search ~domains
      ~rng:(Qturbo_util.Rng.create ~seed:99L)
      ~starts:8
      ~sample:(fun rng -> [| Qturbo_util.Rng.uniform rng ~lo:(-5.0) ~hi:5.0 |])
      ~solve
      ~accept:(fun r -> r.Objective.converged)
      ()
  in
  match (search ~domains:1, search ~domains:4) with
  | (Some a, used_a), (Some b, used_b) ->
      Alcotest.(check int) "same winner" a.Multistart.start_index
        b.Multistart.start_index;
      Alcotest.(check int) "same consumption" used_a used_b;
      check_bits_array "same iterate" a.Multistart.report.Objective.x
        b.Multistart.report.Objective.x;
      Alcotest.(check bool) "winner converged" true
        a.Multistart.report.Objective.converged
  | _ -> Alcotest.fail "expected a surviving start at both domain counts"

let test_multistart_all_fail () =
  let solve _ = failwith "every start fails" in
  match
    Multistart.search ~domains:4
      ~rng:(Qturbo_util.Rng.create ~seed:5L)
      ~starts:6
      ~sample:(fun rng -> [| Qturbo_util.Rng.uniform rng ~lo:(-1.0) ~hi:1.0 |])
      ~solve
      ~accept:(fun _ -> true)
      ()
  with
  | None, used -> Alcotest.(check int) "all starts consumed" 6 used
  | Some _, _ -> Alcotest.fail "no start may win when every solve raises"

(* ---- Compile-level contract ---- *)

let static_target n =
  Qturbo_pauli.Pauli_sum.drop_identity
    (Qturbo_models.Model.hamiltonian_at
       (Qturbo_models.Benchmarks.ising_chain ~n ())
       ~s:0.0)

let compile_opts ?(domains = 1) ?(best_effort = false) ?faults () =
  {
    Qturbo_core.Compiler.default_options with
    Qturbo_core.Compiler.domains;
    best_effort;
    faults = Some (match faults with None -> Fault.empty | Some f -> f);
  }

let compile ~options n =
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n in
  Qturbo_core.Compiler.compile ~options ~aais:ryd.Rydberg.aais
    ~target:(static_target n) ~t_tar:1.0 ()

let all_nan = Fault.parse_exn "*=nan"

let test_strict_compile_raises () =
  match compile ~options:(compile_opts ~faults:all_nan ()) 5 with
  | _ -> Alcotest.fail "strict compile under total failure must raise"
  | exception Failure.Failed fs ->
      Alcotest.(check bool) "some record fatal" true
        (List.exists (fun f -> f.Failure.fatal) fs)

let test_best_effort_compile_degrades () =
  let r =
    compile ~options:(compile_opts ~best_effort:true ~faults:all_nan ()) 5
  in
  Alcotest.(check bool) "degraded" true r.Qturbo_core.Compiler.degraded;
  Alcotest.(check bool) "failures recorded" true
    (r.Qturbo_core.Compiler.failures <> []);
  Alcotest.(check bool) "error metric still finite" true
    (Float.is_finite r.Qturbo_core.Compiler.error_l1)

let test_recovered_compile_matches_clean () =
  (* a single faulted first stage recovers via the jittered restart and
     must land on the same optimum (the problem is convex enough); the
     failure history is carried, non-fatally *)
  let clean = compile ~options:(compile_opts ()) 5 in
  let r =
    compile ~options:(compile_opts ~faults:(Fault.parse_exn "lm=nan") ()) 5
  in
  Alcotest.(check bool) "not degraded" false r.Qturbo_core.Compiler.degraded;
  Alcotest.(check bool) "failure history" true
    (r.Qturbo_core.Compiler.failures <> []);
  if
    Float.abs
      (r.Qturbo_core.Compiler.error_l1 -. clean.Qturbo_core.Compiler.error_l1)
    > 1e-6
  then
    Alcotest.failf "recovered error %g vs clean %g"
      r.Qturbo_core.Compiler.error_l1 clean.Qturbo_core.Compiler.error_l1

let test_constraint_retry_classified () =
  let r =
    compile
      ~options:(compile_opts ~faults:(Fault.parse_exn "constraint-loop=retry") ())
      5
  in
  Alcotest.(check bool) "not fatal" false r.Qturbo_core.Compiler.degraded;
  Alcotest.(check bool) "position-retry-exhausted recorded" true
    (List.exists
       (fun (f : Failure.t) ->
         f.Failure.class_ = Failure.Position_retry_exhausted)
       r.Qturbo_core.Compiler.failures)

let test_degraded_deterministic_across_domains () =
  let run domains =
    compile ~options:(compile_opts ~domains ~best_effort:true ~faults:all_nan ()) 6
  in
  let r1 = run 1 and r4 = run 4 in
  check_bits_array "env" r1.Qturbo_core.Compiler.env r4.Qturbo_core.Compiler.env;
  Alcotest.(check int) "failure count"
    (List.length r1.Qturbo_core.Compiler.failures)
    (List.length r4.Qturbo_core.Compiler.failures);
  List.iter2
    (fun (a : Failure.t) (b : Failure.t) ->
      Alcotest.(check string) "record" (Failure.to_string a)
        (Failure.to_string b))
    r1.Qturbo_core.Compiler.failures r4.Qturbo_core.Compiler.failures

let test_expired_deadline_compile () =
  (* a deadline already in the past: every supervised stage
     short-circuits; best-effort still returns, identically at any
     domain count *)
  let run domains =
    let options =
      {
        (compile_opts ~domains ~best_effort:true ())
        with
        Qturbo_core.Compiler.deadline_seconds = Some (-1.0);
      }
    in
    compile ~options 5
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "degraded" true r1.Qturbo_core.Compiler.degraded;
  Alcotest.(check bool) "deadline class present" true
    (List.exists
       (fun (f : Failure.t) -> f.Failure.class_ = Failure.Deadline_expired)
       r1.Qturbo_core.Compiler.failures);
  check_bits_array "env" r1.Qturbo_core.Compiler.env r4.Qturbo_core.Compiler.env

let test_td_strict_and_best_effort () =
  let model = Qturbo_models.Benchmarks.mis_chain ~n:4 () in
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n:4 in
  let compile_td options =
    Qturbo_core.Td_compiler.compile ~options ~aais:ryd.Rydberg.aais ~model
      ~t_tar:1.0 ~segments:3 ()
  in
  (match compile_td (compile_opts ~faults:all_nan ()) with
  | _ -> Alcotest.fail "strict td compile under total failure must raise"
  | exception Failure.Failed _ -> ());
  let r = compile_td (compile_opts ~best_effort:true ~faults:all_nan ()) in
  Alcotest.(check bool) "degraded" true r.Qturbo_core.Td_compiler.degraded;
  Alcotest.(check bool) "failures recorded" true
    (r.Qturbo_core.Td_compiler.failures <> []);
  (* determinism of the degraded td result across domain counts *)
  let r4 =
    compile_td (compile_opts ~domains:4 ~best_effort:true ~faults:all_nan ())
  in
  List.iter2
    (fun (a : Qturbo_core.Td_compiler.segment_result)
         (b : Qturbo_core.Td_compiler.segment_result) ->
      check_bits_array "segment env" a.Qturbo_core.Td_compiler.env
        b.Qturbo_core.Td_compiler.env)
    r.Qturbo_core.Td_compiler.segments r4.Qturbo_core.Td_compiler.segments

let test_verifier_carries_failures () =
  let n = 5 in
  let ryd = Rydberg.build ~spec:Device.aquila_paper ~n in
  let target = static_target n in
  let r =
    Qturbo_core.Compiler.compile
      ~options:(compile_opts ~best_effort:true ~faults:all_nan ())
      ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  let report = Qturbo_core.Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  Alcotest.(check bool) "degraded flag" true report.Qturbo_core.Verifier.degraded;
  Alcotest.(check int) "failure list"
    (List.length r.Qturbo_core.Compiler.failures)
    (List.length report.Qturbo_core.Verifier.failures);
  let json = Qturbo_core.Verifier.report_to_json report in
  let contains ~needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json has failures" true
    (contains ~needle:{|"failures":[{|} json);
  Alcotest.(check bool) "json degraded flag" true
    (contains ~needle:{|"degraded":true|} json)

let () =
  Alcotest.run "resilience"
    [
      ( "fault",
        [
          Alcotest.test_case "spec parsing and matching" `Quick
            test_fault_parse;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "clean solve matches raw LM" `Quick
            test_supervised_matches_raw;
          Alcotest.test_case "per-stage recovery and classes" `Quick
            test_ladder_recovers_per_stage;
          Alcotest.test_case "total failure marks last fatal" `Quick
            test_ladder_total_failure;
          Alcotest.test_case "deadline in the past" `Quick
            test_deadline_in_past;
          Alcotest.test_case "seeded jitter is deterministic" `Quick
            test_ladder_deterministic;
        ] );
      ( "multistart",
        [
          Alcotest.test_case "injected per-start failures" `Quick
            test_multistart_injected_failures;
          Alcotest.test_case "all starts failing is classified" `Quick
            test_multistart_all_fail;
        ] );
      ( "compile",
        [
          Alcotest.test_case "strict raises Failed" `Quick
            test_strict_compile_raises;
          Alcotest.test_case "best-effort degrades" `Quick
            test_best_effort_compile_degrades;
          Alcotest.test_case "recovered compile matches clean" `Quick
            test_recovered_compile_matches_clean;
          Alcotest.test_case "constraint retry classified" `Quick
            test_constraint_retry_classified;
          Alcotest.test_case "td strict and best-effort" `Quick
            test_td_strict_and_best_effort;
          Alcotest.test_case "degraded result, 1 vs 4 domains" `Quick
            test_degraded_deterministic_across_domains;
          Alcotest.test_case "expired deadline, 1 vs 4 domains" `Quick
            test_expired_deadline_compile;
          Alcotest.test_case "verifier carries failures" `Quick
            test_verifier_carries_failures;
        ] );
    ]
