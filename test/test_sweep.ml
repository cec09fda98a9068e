(* Tests for the sweep/batch layer and its supporting bugfixes: the
   strict JSON emission path (non-finite floats must render as null and
   every --json report must parse under a strict RFC 8259 parser), the
   translation-invariant structural cache key, and the parallel batch
   compile's bitwise equivalence at any worker count. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module Json = Qturbo_util.Json
module Fault = Qturbo_resilience.Fault

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

(* ---- the strict JSON parser itself ---- *)

let test_json_parser_accepts () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("  false  ", Json.Bool false);
      ("42", Json.Number 42.0);
      ("-0.5e2", Json.Number (-50.0));
      ("1.25", Json.Number 1.25);
      ({|"hi"|}, Json.String "hi");
      ({|"a\"b\\c\nd"|}, Json.String "a\"b\\c\nd");
      ({|"A"|}, Json.String "A");
      ("[]", Json.Array []);
      ("[1,null]", Json.Array [ Json.Number 1.0; Json.Null ]);
      ("{}", Json.Object []);
      ( {|{"k":[{"v":true}]}|},
        Json.Object [ ("k", Json.Array [ Json.Object [ ("v", Json.Bool true) ] ]) ] );
    ]
  in
  List.iter
    (fun (text, expected) ->
      match Json.parse text with
      | Ok v when v = expected -> ()
      | Ok _ -> Alcotest.failf "%s: wrong value" text
      | Error e -> Alcotest.failf "%s: %s" text e)
    cases

let test_json_parser_rejects () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" text)
    [
      "";
      "nan";
      "NaN";
      "Infinity";
      "-inf";
      "01";
      "1.";
      ".5";
      "+1";
      "[1,]";
      "{\"a\":1,}";
      "{'a':1}";
      "\"unterminated";
      "\"ctrl\tchar\"";
      "{\"a\" 1}";
      "[1] garbage";
      "{} {}";
    ]

let test_float_lit () =
  List.iter
    (fun f ->
      match Json.parse (Json.float_lit f) with
      | Ok (Json.Number g) -> check_bits "round trip" f g
      | Ok _ | Error _ -> Alcotest.failf "float_lit %h did not round-trip" f)
    [ 0.0; -0.0; 1.0; -1.5; 1e-300; 0.1; Float.max_float; 3.14159265358979 ];
  List.iter
    (fun f ->
      Alcotest.(check string)
        "non-finite is null" "null" (Json.float_lit f))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- every report emission path stays strict-parseable ---- *)

let parse_report json =
  match Json.parse json with
  | Ok v -> v
  | Error e -> Alcotest.failf "report is not strict JSON: %s\n%s" e json

let test_clean_report_parses () =
  Compile_plan.clear_caches ();
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let report = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  let v = parse_report (Verifier.report_to_json report) in
  let plan = Json.member_exn "plan_cache" v in
  List.iter
    (fun field -> ignore (Json.member_exn field plan))
    [
      "enabled"; "hit"; "hits"; "misses"; "discarded"; "key_hits";
      "key_misses"; "key_evictions"; "build_seconds"; "solve_seconds";
    ];
  (match Json.member_exn "error_l1" v with
  | Json.Number _ -> ()
  | _ -> Alcotest.fail "clean error_l1 must be a number")

let test_degraded_report_parses () =
  (* total fault injection: the best-effort compile keeps non-converged
     components; the resulting report (failures, degraded flag, any
     non-finite metric) must still be strict JSON *)
  Compile_plan.clear_caches ();
  let ryd = rydberg_for "ising-chain" 5 in
  let target = static_target "ising-chain" 5 in
  let options =
    {
      Compiler.default_options with
      Compiler.best_effort = true;
      faults = Some (Fault.parse_exn "*=nan");
    }
  in
  let r = Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  Alcotest.(check bool) "degraded" true r.Compiler.degraded;
  let report = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  let v = parse_report (Verifier.report_to_json report) in
  (match Json.member_exn "degraded" v with
  | Json.Bool true -> ()
  | _ -> Alcotest.fail "degraded flag must be true in JSON");
  (match Json.member_exn "failures" v with
  | Json.Array (_ :: _) -> ()
  | _ -> Alcotest.fail "failures must be a non-empty array");
  (* the structured diagnostic / failure emitters parse standalone too *)
  (match Json.parse (Qturbo_resilience.Failure.list_to_json r.Compiler.failures) with
  | Ok (Json.Array _) -> ()
  | _ -> Alcotest.fail "Failure.list_to_json must be a strict JSON array");
  let diags =
    Compiler.analyze ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  match Json.parse (Qturbo_analysis.Diagnostic.list_to_json diags) with
  | Ok (Json.Object _ as v) -> (
      match Json.member_exn "diagnostics" v with
      | Json.Array _ -> ()
      | _ -> Alcotest.fail "diagnostics field must be an array")
  | _ -> Alcotest.fail "Diagnostic.list_to_json must be a strict JSON object"

let test_nonfinite_report_is_null () =
  (* synthesize the worst case directly: every float non-finite *)
  Compile_plan.clear_caches ();
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  let r = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  let report = Verifier.verify_rydberg ryd ~target ~t_tar:1.0 r in
  let report =
    {
      report with
      Verifier.error_l1 = Float.nan;
      relative_error = Float.infinity;
      max_term_error = Float.neg_infinity;
      plan =
        {
          report.Verifier.plan with
          Compiler.build_seconds = Float.nan;
          solve_seconds = Float.infinity;
        };
    }
  in
  let v = parse_report (Verifier.report_to_json report) in
  List.iter
    (fun field ->
      match Json.member_exn field v with
      | Json.Null -> ()
      | _ -> Alcotest.failf "%s must render as null" field)
    [ "error_l1"; "relative_error"; "max_term_error" ];
  let plan = Json.member_exn "plan_cache" v in
  List.iter
    (fun field ->
      match Json.member_exn field plan with
      | Json.Null -> ()
      | _ -> Alcotest.failf "plan_cache.%s must render as null" field)
    [ "build_seconds"; "solve_seconds" ]

(* ---- cache-key canonicalization ---- *)

let key_of_ryd (ryd : Rydberg.t) target =
  Compile_plan.plan_key ~options:Compiler.default_options
    ~aais:ryd.Rydberg.aais ~target

let test_key_translation_invariant_cases () =
  List.iter
    (fun (spec, name, n) ->
      let target = static_target name n in
      let base = Rydberg.build_at ~origin:(0.0, 0.0) ~spec ~n in
      let same = Rydberg.build ~spec ~n in
      Alcotest.(check string)
        (name ^ " origin (0,0) is the default key")
        (key_of_ryd base target) (key_of_ryd same target);
      List.iter
        (fun origin ->
          let moved = Rydberg.build_at ~origin ~spec ~n in
          Alcotest.(check string)
            (Printf.sprintf "%s key invariant under (%g, %g)" name (fst origin)
               (snd origin))
            (key_of_ryd base target) (key_of_ryd moved target))
        [ (37.5, 0.0); (-12.25, 101.0); (0.0, -5.5); (250.0, 250.0) ])
    [
      (relaxed_line, "ising-chain", 4);
      (relaxed_plane, "ising-cycle", 5);
    ]

let test_key_translation_invariant_qcheck =
  QCheck.Test.make ~name:"shape key invariant under rigid translation"
    ~count:40
    QCheck.(pair (float_range (-300.0) 300.0) (float_range (-300.0) 300.0))
    (fun origin ->
      let target = static_target "ising-cycle" 5 in
      let base = Rydberg.build ~spec:relaxed_plane ~n:5 in
      let moved = Rydberg.build_at ~origin ~spec:relaxed_plane ~n:5 in
      String.equal (key_of_ryd base target) (key_of_ryd moved target))

let test_key_still_separates_devices () =
  (* anchoring must not over-merge: a different spacing scale (different
     initial guesses relative to the anchor) keeps a distinct key *)
  let target = static_target "ising-chain" 4 in
  let a = Rydberg.build ~spec:relaxed_line ~n:4 in
  let b =
    Rydberg.build
      ~spec:{ relaxed_line with Device.min_separation = 5.0 }
      ~n:4
  in
  if String.equal (key_of_ryd a target) (key_of_ryd b target) then
    Alcotest.fail "devices with different constraints must not share a key"

let test_key_term_order_invariant () =
  let ryd = rydberg_for "ising-chain" 3 in
  let terms =
    [
      (Pauli_string.two 0 Pauli.Z 1 Pauli.Z, 0.7);
      (Pauli_string.two 1 Pauli.Z 2 Pauli.Z, 0.3);
      (Pauli_string.single 0 Pauli.X, 0.45);
      (Pauli_string.single 2 Pauli.X, 0.2);
    ]
  in
  let sum_of order =
    List.fold_left (fun acc (s, c) -> Pauli_sum.add_term acc s c) Pauli_sum.zero
      order
  in
  let base = key_of_ryd ryd (sum_of terms) in
  List.iter
    (fun order ->
      Alcotest.(check string)
        "insertion order does not change the key" base
        (key_of_ryd ryd (sum_of order)))
    [ List.rev terms; List.tl terms @ [ List.hd terms ] ]

(* ---- batch equivalence at any worker count ---- *)

let series n k =
  List.init k (fun i ->
      let j = 0.2 +. (0.11 *. float_of_int i)
      and h = 0.45 +. (0.07 *. float_of_int i) in
      let model = Qturbo_models.Benchmarks.ising_cycle ~j ~h ~n () in
      ( Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at model ~s:0.0),
        0.5 +. (0.1 *. float_of_int i) ))

let check_results_bitwise msg expected actual =
  Alcotest.(check int) (msg ^ " count") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i ((e : Compiler.result), (a : Compiler.result)) ->
      let tag = Printf.sprintf "%s job %d" msg i in
      check_bits_arr (tag ^ " env") e.Compiler.env a.Compiler.env;
      check_bits (tag ^ " t_sim") e.Compiler.t_sim a.Compiler.t_sim;
      check_bits (tag ^ " error_l1") e.Compiler.error_l1 a.Compiler.error_l1;
      Alcotest.(check bool)
        (tag ^ " degraded") e.Compiler.degraded a.Compiler.degraded;
      Alcotest.(check int)
        (tag ^ " failures")
        (List.length e.Compiler.failures)
        (List.length a.Compiler.failures))
    (List.combine expected actual)

let run_batch ~options ~batch_domains jobs =
  Compile_plan.clear_caches ();
  let ryd = Rydberg.build ~spec:relaxed_plane ~n:5 in
  Compiler.compile_batch ~options ~batch_domains ~aais:ryd.Rydberg.aais jobs

let test_batch_bitwise_across_domains () =
  let jobs = series 5 8 in
  let options = { Compiler.default_options with Compiler.domains = 1 } in
  let seq = run_batch ~options ~batch_domains:1 jobs in
  let par = run_batch ~options ~batch_domains:4 jobs in
  check_results_bitwise "domains 1 vs 4" seq par;
  (* and the batch equals job-by-job compiles *)
  Compile_plan.clear_caches ();
  let ryd = Rydberg.build ~spec:relaxed_plane ~n:5 in
  let individual =
    List.map
      (fun (target, t_tar) ->
        Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar ())
      jobs
  in
  check_results_bitwise "batch vs individual" individual par

let test_batch_bitwise_under_faults () =
  (* injected faults are deterministic per (site, component), so even a
     degraded batch is identical at any worker count *)
  let jobs = series 5 6 in
  let options =
    {
      Compiler.default_options with
      Compiler.domains = 1;
      best_effort = true;
      faults = Some (Fault.parse_exn "lm=nan");
    }
  in
  let seq = run_batch ~options ~batch_domains:1 jobs in
  let par = run_batch ~options ~batch_domains:4 jobs in
  List.iter
    (fun (r : Compiler.result) ->
      Alcotest.(check bool) "faults recorded" true (r.Compiler.failures <> []))
    seq;
  check_results_bitwise "faulted domains 1 vs 4" seq par

let test_batch_counts_one_miss () =
  let jobs = series 5 16 in
  let options = { Compiler.default_options with Compiler.domains = 1 } in
  let results = run_batch ~options ~batch_domains:4 jobs in
  let s = Compile_plan.cache_stats () in
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "hits" 15 s.Plan_cache.hits;
  List.iteri
    (fun i (r : Compiler.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d cache_hit" i)
        (i > 0) r.Compiler.plan.Compiler.cache_hit)
    results

(* ---- the time-dependent sweep shares one plan ---- *)

let test_td_segment_sweep_single_miss () =
  Compile_plan.clear_caches ();
  let n = 5 in
  let ryd = Rydberg.build ~spec:relaxed_line ~n in
  let model = Qturbo_models.Benchmarks.mis_chain ~n () in
  let builds = ref 0 in
  List.iter
    (fun segments ->
      let td =
        Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments
          ()
      in
      builds := !builds + td.Td_compiler.plan_builds)
    (* 6 and 10 are the K ≡ 2 (mod 4) counts whose midpoint grid hits
       s = 0.75 exactly, cancelling the mis-chain ZZ coefficients there:
       under union-support planning they must not fork a second shape. *)
    [ 3; 4; 5; 6; 7; 8; 10; 16 ];
  Alcotest.(check int) "one front-end build across the sweep" 1 !builds;
  let s = Compile_plan.cache_stats () in
  Alcotest.(check int) "one global miss" 1 s.Plan_cache.misses

let () =
  Alcotest.run "sweep"
    [
      ( "json",
        [
          Alcotest.test_case "parser accepts" `Quick test_json_parser_accepts;
          Alcotest.test_case "parser rejects" `Quick test_json_parser_rejects;
          Alcotest.test_case "float_lit" `Quick test_float_lit;
          Alcotest.test_case "clean report parses" `Quick
            test_clean_report_parses;
          Alcotest.test_case "degraded report parses" `Quick
            test_degraded_report_parses;
          Alcotest.test_case "non-finite floats render null" `Quick
            test_nonfinite_report_is_null;
        ] );
      ( "cache-key",
        [
          Alcotest.test_case "translation invariant" `Quick
            test_key_translation_invariant_cases;
          QCheck_alcotest.to_alcotest test_key_translation_invariant_qcheck;
          Alcotest.test_case "still separates devices" `Quick
            test_key_still_separates_devices;
          Alcotest.test_case "term order invariant" `Quick
            test_key_term_order_invariant;
        ] );
      ( "batch",
        [
          Alcotest.test_case "bitwise across domains" `Quick
            test_batch_bitwise_across_domains;
          Alcotest.test_case "bitwise under faults" `Quick
            test_batch_bitwise_under_faults;
          Alcotest.test_case "one miss for 16 jobs" `Quick
            test_batch_counts_one_miss;
          Alcotest.test_case "td segment sweep single miss" `Quick
            test_td_segment_sweep_single_miss;
        ] );
    ]
