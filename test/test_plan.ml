(* Tests for the staged compile pipeline: Compile_plan artifacts, the
   structural plan cache, golden equivalence between the plan-based
   entry points, and the QT016 input validation. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }
let relaxed_plane = Device.with_geometry Device.Plane relaxed_line

let rydberg_for name n =
  let spec =
    match name with "ising-cycle" | "ising-cycle+" -> relaxed_plane | _ -> relaxed_line
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

(* ---- golden equivalence: td(1 segment) == static compile ---- *)

(* The single-segment time-dependent compile delegates to the staged
   static pipeline, so the two entry points must agree bitwise — on the
   §5 worked example and on Fig. 3 benchmarks. *)
let test_td_single_segment_golden () =
  List.iter
    (fun (name, n) ->
      let ryd = rydberg_for name n in
      let model = Qturbo_models.Benchmarks.by_name ~name ~n in
      let target = static_target name n in
      let r =
        Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
      in
      let td =
        Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0
          ~segments:1 ()
      in
      (match td.Td_compiler.segments with
      | [ s ] ->
          check_bits_arr (name ^ " env") r.Compiler.env s.Td_compiler.env;
          check_bits (name ^ " duration") r.Compiler.t_sim s.Td_compiler.duration;
          check_bits (name ^ " seg error") r.Compiler.error_l1
            s.Td_compiler.error_l1;
          check_bits (name ^ " eps1") r.Compiler.eps1 s.Td_compiler.eps1
      | other -> Alcotest.failf "%s: %d segments" name (List.length other));
      check_bits (name ^ " t_sim") r.Compiler.t_sim td.Td_compiler.t_sim;
      check_bits (name ^ " error_l1") r.Compiler.error_l1
        td.Td_compiler.error_l1;
      check_bits (name ^ " relative") r.Compiler.relative_error
        td.Td_compiler.relative_error;
      Alcotest.(check int) (name ^ " binding") 0 td.Td_compiler.binding_segment)
    [ ("ising-chain", 3); ("ising-cycle", 5); ("kitaev", 5) ]

(* ---- QT016 validation ---- *)

let test_compiler_rejects_nonfinite_t_tar () =
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  List.iter
    (fun t_tar ->
      match
        Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar ()
      with
      | exception Qturbo_analysis.Diagnostic.Rejected [ d ] ->
          Alcotest.(check string) "code" "QT016" d.Qturbo_analysis.Diagnostic.code
      | exception e ->
          Alcotest.failf "expected Rejected [QT016], got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Rejected [QT016], got a result")
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- structural keys ---- *)

let test_plan_key_ignores_coefficients () =
  let ryd = rydberg_for "ising-chain" 5 in
  let options = Compiler.default_options in
  let base =
    Compile_plan.plan_key ~options ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  (* a different support on the same device must key differently *)
  let smaller =
    Compile_plan.plan_key ~options ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 3)
  in
  Alcotest.(check bool) "support contributes" true (base <> smaller);
  (* classification-affecting options contribute too *)
  let generic =
    Compile_plan.plan_key
      ~options:{ options with Compiler.generic_local_solver = true }
      ~aais:ryd.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  Alcotest.(check bool) "options contribute" true (base <> generic);
  (* a different device fingerprint (same channels structurally scaled)
     must key differently *)
  let tighter =
    Rydberg.build
      ~spec:{ relaxed_line with Device.min_separation = 7.7 }
      ~n:5
  in
  let other =
    Compile_plan.plan_key ~options ~aais:tighter.Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  Alcotest.(check bool) "device fingerprint contributes" true (base <> other)

let prop_plan_key_coefficient_invariant =
  QCheck.Test.make ~name:"plan key is coefficient-invariant" ~count:25
    QCheck.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (fun (j, h) ->
      let ryd = rydberg_for "ising-chain" 4 in
      let target ~j ~h =
        Pauli_sum.drop_identity
          (Qturbo_models.Model.hamiltonian_at
             (Qturbo_models.Benchmarks.ising_chain ~j ~h ~n:4 ())
             ~s:0.0)
      in
      let options = Compiler.default_options in
      let key = Compile_plan.plan_key ~options ~aais:ryd.Rydberg.aais in
      String.equal
        (key ~target:(target ~j ~h))
        (key ~target:(target ~j:1.0 ~h:1.0)))

(* Device-key digests, pinned: plan-store entries and LRU keys are filed
   under the key bytes, so a renderer change must keep every byte.  The
   three planar Rydberg rows were re-recorded when the key stopped
   rendering site coordinates relative to the first atom (and snapped to
   1e-6 um) and started rendering the truncation summary. *)
let key_digest_goldens =
  [
    ("rydberg", "ising-cycle", 93, None, "3b785a08356e7d8ff40953d7de2d038b");
    ("rydberg", "kitaev", 93, None, "e98d8ec1b034a43cd2253b89ee39f2a4");
    ("rydberg", "ising-cycle", 300, Some "45", "565666e33cb74833cf0b9b00a8c60d3c");
    ("rydberg", "ising-cycle", 1000, None, "87b14ea22aabcce74a8ff8da288e41ae");
    ("heisenberg", "heis-chain", 300, None, "82bc8676b28312077345868934c923bf");
    ("iontrap", "ising-chain", 40, None, "ddbe0e51b978dbd7b82eae9d7c5dd0ef");
    ("iontrap", "qaoa-chain", 23, None, "b9f9d114a9860453d05a5df48fd19f40");
  ]

let test_key_digest_goldens () =
  List.iter
    (fun (backend, model, n, cutoff, hex) ->
      let b = Qturbo_backend.Backend.find_exn backend in
      let inst = b.Qturbo_backend.Backend.instantiate ?cutoff ~model_name:model ~n () in
      Alcotest.(check string)
        (Printf.sprintf "%s %s n=%d" backend model n)
        hex
        (Digest.to_hex (Shape.digest inst.Qturbo_backend.Backend.aais)))
    key_digest_goldens

(* ---- cached vs cold solves are bitwise-identical ---- *)

let cold_vs_warm ~domains (j, h) =
  let ryd = rydberg_for "ising-chain" 4 in
  let target =
    Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_chain ~j ~h ~n:4 ())
         ~s:0.0)
  in
  let options = { Compiler.default_options with Compiler.domains } in
  Compile_plan.clear_caches ();
  let cold =
    Compiler.compile
      ~options:{ options with Compiler.plan_cache = false }
      ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  (* prime the cache, then solve against the cached plan *)
  ignore (Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ());
  let warm =
    Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  if not warm.Compiler.plan.Compiler.cache_hit then
    Alcotest.fail "warm compile missed the cache";
  bits_equal cold.Compiler.env warm.Compiler.env
  && bits_equal cold.Compiler.alpha_achieved warm.Compiler.alpha_achieved
  && Int64.equal
       (Int64.bits_of_float cold.Compiler.t_sim)
       (Int64.bits_of_float warm.Compiler.t_sim)
  && Int64.equal
       (Int64.bits_of_float cold.Compiler.error_l1)
       (Int64.bits_of_float warm.Compiler.error_l1)

let prop_cached_solve_bitwise_domains_1 =
  QCheck.Test.make ~name:"cached vs cold solve, 1 domain" ~count:8
    QCheck.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (cold_vs_warm ~domains:1)

let prop_cached_solve_bitwise_domains_4 =
  QCheck.Test.make ~name:"cached vs cold solve, 4 domains" ~count:8
    QCheck.(pair (float_range 0.05 3.0) (float_range 0.05 3.0))
    (cold_vs_warm ~domains:4)

(* ---- the LRU cache ---- *)

let test_plan_cache_lru () =
  Alcotest.check_raises "capacity" (Invalid_argument "Plan_cache.create: capacity < 1")
    (fun () -> ignore (Plan_cache.create ~capacity:0));
  let c = Plan_cache.create ~capacity:2 in
  Alcotest.(check (option int)) "miss" None (Plan_cache.find c "a");
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Plan_cache.find c "a");
  (* b is now least recently used; inserting c evicts it *)
  Plan_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a resident" (Some 1) (Plan_cache.find c "a");
  Alcotest.(check (option int)) "c resident" (Some 3) (Plan_cache.find c "c");
  (* re-adding a resident key keeps the resident value — and counts the
     dropped fresh build instead of silently discarding it *)
  Plan_cache.add c "a" 99;
  Alcotest.(check (option int)) "resident kept" (Some 1) (Plan_cache.find c "a");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Plan_cache.evictions;
  Alcotest.(check int) "size" 2 s.Plan_cache.size;
  Alcotest.(check int) "hits" 4 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 2 s.Plan_cache.misses;
  Alcotest.(check int) "discarded" 1 s.Plan_cache.discarded;
  (* per-key telemetry: "a" saw 1 miss, 3 hits, 1 discarded build;
     "b" was evicted once; an unseen key reads all-zero *)
  let ka = Plan_cache.key_stats c "a" in
  Alcotest.(check int) "a key hits" 3 ka.Plan_cache.key_hits;
  Alcotest.(check int) "a key misses" 1 ka.Plan_cache.key_misses;
  Alcotest.(check int) "a key discarded" 1 ka.Plan_cache.key_discarded;
  let kb = Plan_cache.key_stats c "b" in
  Alcotest.(check int) "b key evictions" 1 kb.Plan_cache.key_evictions;
  Alcotest.(check bool) "unseen key zero" true
    (Plan_cache.key_stats c "nope" = Plan_cache.zero_key_stats);
  Alcotest.(check int) "per_key size" 3 (List.length (Plan_cache.per_key c));
  Plan_cache.clear c;
  let s = Plan_cache.stats c in
  Alcotest.(check int) "cleared size" 0 s.Plan_cache.size;
  Alcotest.(check int) "cleared hits" 0 s.Plan_cache.hits;
  Alcotest.(check int) "cleared misses" 0 s.Plan_cache.misses;
  Alcotest.(check int) "cleared discarded" 0 s.Plan_cache.discarded;
  Alcotest.(check int) "cleared per_key" 0 (List.length (Plan_cache.per_key c))

(* ---- compact LRU keys: a digest picks the candidate, equality decides ---- *)

let obtain aais target =
  Compile_plan.obtain ~options:Compiler.default_options ~aais ~target

let provenance_name = function
  | Compile_plan.Built -> "built"
  | Compile_plan.Cached -> "cached"
  | Compile_plan.Stored -> "stored"

let check_provenance msg expected (_, got) =
  Alcotest.(check string) msg (provenance_name expected) (provenance_name got)

let test_equal_devices_share_plan () =
  Compile_plan.clear_caches ();
  let target = static_target "ising-chain" 5 in
  let a = rydberg_for "ising-chain" 5 and b = rydberg_for "ising-chain" 5 in
  Alcotest.(check bool) "separately built" false (a.Rydberg.aais == b.Rydberg.aais);
  let pa, prov_a = obtain a.Rydberg.aais target in
  let pb, prov_b = obtain b.Rydberg.aais target in
  check_provenance "first device builds" Compile_plan.Built (pa, prov_a);
  check_provenance "equal device hits" Compile_plan.Cached (pb, prov_b);
  Alcotest.(check bool) "one shared plan" true (pa == pb)

let test_one_ulp_bound_misses () =
  Compile_plan.clear_caches ();
  let target = static_target "ising-chain" 5 in
  let base = rydberg_for "ising-chain" 5 in
  let nudged =
    Rydberg.build
      ~spec:
        {
          relaxed_line with
          Device.omega_max = Float.succ relaxed_line.Device.omega_max;
        }
      ~n:5
  in
  check_provenance "base builds" Compile_plan.Built (obtain base.Rydberg.aais target);
  check_provenance "one ulp of the omega bound misses" Compile_plan.Built
    (obtain nudged.Rydberg.aais target);
  check_provenance "base still hits" Compile_plan.Cached
    (obtain base.Rydberg.aais target)

let test_pool_growth_rekeys () =
  Compile_plan.clear_caches ();
  let target = static_target "ising-chain" 4 in
  let aais = (rydberg_for "ising-chain" 4).Rydberg.aais in
  check_provenance "first key builds" Compile_plan.Built (obtain aais target);
  let before = Shape.of_aais aais in
  ignore
    (Variable.fresh aais.Aais.pool ~name:"appended"
       ~kind:Variable.Runtime_dynamic ~lo:0.0 ~hi:1.0 ());
  Alcotest.(check bool) "the rendering follows the pool" false
    (String.equal before (Shape.of_aais aais));
  check_provenance "the grown device misses" Compile_plan.Built
    (obtain aais target)

(* A key shared by two different values (a digest collision) serves
   neither to the other's request. *)
let test_plan_cache_accept () =
  let c = Plan_cache.create ~capacity:2 in
  let is v x = x = v in
  Plan_cache.add c "k" ~accept:(is 1) 1;
  Alcotest.(check (option int)) "accepted hit" (Some 1)
    (Plan_cache.find c "k" ~accept:(is 1));
  Alcotest.(check (option int)) "refused resident is a miss" None
    (Plan_cache.find c "k" ~accept:(is 2));
  Plan_cache.add c "k" ~accept:(is 2) 2;
  Alcotest.(check (option int)) "refused resident replaced" (Some 2)
    (Plan_cache.find c "k" ~accept:(is 2));
  Plan_cache.add c "k" ~accept:(is 2) 3;
  Alcotest.(check (option int)) "accepted resident kept" (Some 2)
    (Plan_cache.find c "k");
  let s = Plan_cache.stats c in
  Alcotest.(check int) "hits" 3 s.Plan_cache.hits;
  Alcotest.(check int) "misses" 1 s.Plan_cache.misses;
  Alcotest.(check int) "replacement counted as an eviction" 1
    s.Plan_cache.evictions;
  Alcotest.(check int) "discarded" 1 s.Plan_cache.discarded;
  Alcotest.(check int) "size" 1 s.Plan_cache.size

(* Bytes, not time: [Alloc.bytes] counts every allocation of this
   domain, and the obtain runs on it alone. *)
let test_warm_obtain_allocation () =
  Compile_plan.clear_caches ();
  let target = static_target "ising-cycle" 93 in
  let aais = (rydberg_for "ising-cycle" 93).Rydberg.aais in
  let options = { Compiler.default_options with Compiler.domains = 1 } in
  ignore (Compile_plan.obtain ~options ~aais ~target);
  let before = Qturbo_util.Alloc.bytes () in
  let _, provenance = Compile_plan.obtain ~options ~aais ~target in
  let bytes = Qturbo_util.Alloc.bytes () -. before in
  Alcotest.(check string) "warm" "cached" (provenance_name provenance);
  if bytes >= 65536.0 then
    Alcotest.failf "a warm obtain at ising-cycle n=93 allocated %.0f bytes" bytes

(* ---- warm solve allocation ---- *)

(* Bytes allocated by one warm [Compile_plan.solve] of a backend's
   benchmark model: the plan is cached and the first solve has sized
   every per-domain scratch, so what remains is the solve's own work.
   [domains = 1] and explicit empty faults make the figure independent
   of [QTURBO_DOMAINS] and [QTURBO_FAULTS]. *)
let warm_solve_bytes (backend : Qturbo_backend.Backend.t) model n =
  Compile_plan.clear_caches ();
  let inst = backend.Qturbo_backend.Backend.instantiate ~model_name:model ~n () in
  let target = static_target model n in
  let options =
    {
      Compiler.default_options with
      Compiler.domains = 1;
      faults = Some Qturbo_resilience.Fault.empty;
    }
  in
  let plan, _ =
    Compile_plan.obtain ~options ~aais:inst.Qturbo_backend.Backend.aais ~target
  in
  let solve () =
    ignore (Compile_plan.solve ~options ~plan ~coeffs:target ~t_tar:1.0 ())
  in
  solve ();
  let before = Qturbo_util.Alloc.bytes () in
  solve ();
  Qturbo_util.Alloc.bytes () -. before

let mb = 1e6

let check_solve_bytes ~limit_mb label bytes =
  if bytes >= limit_mb *. mb then
    Alcotest.failf "a warm %s solve allocated %.1f MB (limit %.0f MB)" label
      (bytes /. mb) limit_mb

(* closed-form components evaluate on per-domain scratch, not on a
   device-sized env per call *)
let test_closed_form_solve_allocation () =
  let module B = Qturbo_backend.Backend in
  check_solve_bytes ~limit_mb:24.0 "heisenberg heis-chain n=300"
    (warm_solve_bytes B.heisenberg "heis-chain" 300);
  check_solve_bytes ~limit_mb:24.0 "iontrap ising-chain n=40"
    (warm_solve_bytes B.iontrap "ising-chain" 40)

(* the component count triples from n=100 to n=300; a per-call
   allocation sized by the device makes the bytes grow ~5x *)
let test_closed_form_solve_growth () =
  let module B = Qturbo_backend.Backend in
  let small = warm_solve_bytes B.heisenberg "heis-chain" 100 in
  let large = warm_solve_bytes B.heisenberg "heis-chain" 300 in
  if large > 3.5 *. small then
    Alcotest.failf
      "heis-chain warm solve bytes grew %.2fx from n=100 (%.1f MB) to n=300 \
       (%.1f MB); limit 3.5x"
      (large /. small) (small /. mb) (large /. mb)

(* the LU position solve refills a CSR Jacobian instead of a dense
   rows x free-coordinates matrix *)
let test_position_solve_allocation () =
  check_solve_bytes ~limit_mb:28.0 "rydberg ising-cycle n=93"
    (warm_solve_bytes Qturbo_backend.Backend.rydberg "ising-cycle" 93)

(* A warm solve no longer scans the device for its precheck, and fills
   its right-hand side from the target's terms *)
let test_warm_solve_allocation () =
  check_solve_bytes ~limit_mb:14.0 "rydberg ising-cycle n=93"
    (warm_solve_bytes Qturbo_backend.Backend.rydberg "ising-cycle" 93)

(* The position solve starts from the closed-form magnitude pre-fit
   (one residual pass instead of a golden-section search), fills a
   Jacobian over the prepared CSR pattern, and evaluates its 1-D
   van-der-Waals rows ([pow dx 6]) without boxing *)
let test_warm_kitaev_solve_allocation () =
  check_solve_bytes ~limit_mb:12.0 "rydberg kitaev n=93"
    (warm_solve_bytes Qturbo_backend.Backend.rydberg "kitaev" 93)

(* The precheck reads the plan's tables: one index lookup per target
   term.  Kitaev is the worst case for a channel scan, since every pair
   channel feeds a Z row. *)
let test_diagnose_allocation () =
  Compile_plan.clear_caches ();
  let inst =
    Qturbo_backend.Backend.rydberg.Qturbo_backend.Backend.instantiate
      ~model_name:"kitaev" ~n:93 ()
  in
  let aais = inst.Qturbo_backend.Backend.aais in
  let target = static_target "kitaev" 93 in
  let plan, _ =
    Compile_plan.obtain ~options:Compiler.default_options ~aais ~target
  in
  let diagnose () =
    ignore
      (Sys.opaque_identity
         (Compile_plan.diagnose ~t_max:inst.Qturbo_backend.Backend.max_time
            ~aais ~plan ~t_tar:1.0 target))
  in
  diagnose ();
  let before = Qturbo_util.Alloc.bytes () in
  diagnose ();
  let bytes = Qturbo_util.Alloc.bytes () -. before in
  if bytes >= 1.0 *. mb then
    Alcotest.failf "diagnosing rydberg kitaev n=93 allocated %.2f MB (limit 1 MB)"
      (bytes /. mb)

(* ---- AAIS construction allocation ---- *)

(* Bytes of one uncached [instantiate] (the instance cache lives in the
   service, above the backend).  Polar hints are validated on a two-slot
   environment, so the build stops allocating a device-sized array per
   probe: 2n polar channels times 5n variables made it quadratic. *)
let instantiate_bytes (backend : Qturbo_backend.Backend.t) model n =
  let before = Qturbo_util.Alloc.bytes () in
  ignore
    (Sys.opaque_identity
       (backend.Qturbo_backend.Backend.instantiate ~model_name:model ~n ()));
  Qturbo_util.Alloc.bytes () -. before

let check_instantiate_bytes ~limit_mb label bytes =
  if bytes >= limit_mb *. mb then
    Alcotest.failf "instantiating %s allocated %.1f MB (limit %.0f MB)" label
      (bytes /. mb) limit_mb

(* Every pair channel is an instance of the build's one van-der-Waals
   template: no per-pair kernel compile or expression tree, and one
   label per pair.  The planar n=93 build allocated 20.6 MB when each
   pair compiled its own kernel and formatted its label twice; it
   allocates 5.8 MB, n=1000 11.7 MB. *)
let test_instantiate_allocation_rydberg () =
  check_instantiate_bytes ~limit_mb:16.0 "rydberg ising-cycle n=1000"
    (instantiate_bytes Qturbo_backend.Backend.rydberg "ising-cycle" 1000)

let test_instantiate_allocation_planar () =
  check_instantiate_bytes ~limit_mb:10.0 "rydberg ising-cycle n=93"
    (instantiate_bytes Qturbo_backend.Backend.rydberg "ising-cycle" 93)

let test_instantiate_allocation_iontrap () =
  check_instantiate_bytes ~limit_mb:50.0 "iontrap ising-chain n=93"
    (instantiate_bytes Qturbo_backend.Backend.iontrap "ising-chain" 93)

(* Bytes of one cold [Compile_plan.build] on a fresh instance, the first
   key render included.  The position Jacobian's 16,836 kernels come
   from one compile per expression template, relabeled per row;
   compiling each row's kernels allocates over twice the limit.  It
   measures 22.7 MB, against 33.9 MB before the key was rendered per
   template and the lint gate stopped copying the key. *)
let test_cold_build_allocation () =
  Compile_plan.clear_caches ();
  let inst =
    Qturbo_backend.Backend.rydberg.Qturbo_backend.Backend.instantiate
      ~model_name:"ising-cycle" ~n:93 ()
  in
  let target_shape = Shape.support_of_target (static_target "ising-cycle" 93) in
  let before = Qturbo_util.Alloc.bytes () in
  ignore
    (Sys.opaque_identity
       (Compile_plan.build ~aais:inst.Qturbo_backend.Backend.aais ~target_shape ()));
  let bytes = Qturbo_util.Alloc.bytes () -. before in
  if bytes >= 32.0 *. mb then
    Alcotest.failf "a cold ising-cycle n=93 build allocated %.1f MB (limit 32 MB)"
      (bytes /. mb)

(* ---- stage hooks and cache plumbing ---- *)

let with_stages f =
  let stages = ref [] in
  Compiler.stage_hook := (fun s -> stages := s :: !stages);
  Fun.protect
    ~finally:(fun () -> Compiler.stage_hook := fun _ -> ())
    (fun () ->
      f ();
      List.rev !stages)

let test_stage_hook_plan_build () =
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  let compile () =
    ignore (Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ())
  in
  Compile_plan.clear_caches ();
  let cold = with_stages compile in
  Alcotest.(check bool) "cold builds a plan" true (List.mem "plan-build" cold);
  Alcotest.(check bool) "cold misses" false (List.mem "plan-cache-hit" cold);
  (* build precedes the solver stages *)
  let rec before a b = function
    | [] -> false
    | s :: rest -> if s = a then List.mem b rest else before a b rest
  in
  Alcotest.(check bool) "build before precheck" true
    (before "plan-build" "precheck" cold);
  let warm = with_stages compile in
  Alcotest.(check bool) "warm hits" true (List.mem "plan-cache-hit" warm);
  Alcotest.(check bool) "warm skips the build" false (List.mem "plan-build" warm)

let test_cache_stats_counters () =
  let ryd = rydberg_for "ising-chain" 3 in
  let target = static_target "ising-chain" 3 in
  Compile_plan.clear_caches ();
  let r1 = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 () in
  Alcotest.(check bool) "first is a miss" false r1.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "first records a build" true
    (r1.Compiler.plan.Compiler.build_seconds > 0.0);
  let r2 = Compiler.compile ~aais:ryd.Rydberg.aais ~target ~t_tar:2.0 () in
  Alcotest.(check bool) "same shape hits" true r2.Compiler.plan.Compiler.cache_hit;
  check_bits "hit build cost is zero" 0.0 r2.Compiler.plan.Compiler.build_seconds;
  Alcotest.(check int) "hit counter" 1 r2.Compiler.plan.Compiler.cache_hits;
  Alcotest.(check int) "miss counter" 1 r2.Compiler.plan.Compiler.cache_misses;
  let s = Compile_plan.cache_stats () in
  Alcotest.(check int) "plan cache size" 1 s.Plan_cache.size;
  (* disabling the cache leaves the counters untouched *)
  let r3 =
    Compiler.compile
      ~options:{ Compiler.default_options with Compiler.plan_cache = false }
      ~aais:ryd.Rydberg.aais ~target ~t_tar:1.0 ()
  in
  Alcotest.(check bool) "disabled: no hit" false r3.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "disabled flag carried" false
    r3.Compiler.plan.Compiler.cache_enabled;
  let s' = Compile_plan.cache_stats () in
  Alcotest.(check int) "no extra miss" s.Plan_cache.misses s'.Plan_cache.misses

(* ---- compile_batch ---- *)

(* Each plan builds its own device part, so with the cache off a batch
   over two supports (the zero field drops the X terms) builds two
   plans, and every job still matches its individual compile. *)
let test_compile_batch_matches_individual () =
  let ryd = rydberg_for "ising-chain" 4 in
  let target ?h ~j () =
    Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.ising_chain ?h ~j ~n:4 ())
         ~s:0.0)
  in
  let jobs =
    [ (target ~j:0.5 (), 1.0); (target ~j:1.5 (), 0.7); (target ~j:2.5 (), 1.3) ]
  in
  let two_supports =
    [ (target ~j:0.5 (), 1.0); (target ~h:0.0 ~j:1.5 (), 0.7);
      (target ~j:2.5 (), 1.3); (target ~h:0.0 ~j:0.8 (), 1.1) ]
  in
  List.iter
    (fun (plan_cache, jobs) ->
      let options = { Compiler.default_options with Compiler.plan_cache } in
      Compile_plan.clear_caches ();
      let batch = Compiler.compile_batch ~options ~aais:ryd.Rydberg.aais jobs in
      let supports =
        List.sort_uniq
          (List.compare Pauli_string.compare)
          (List.map (fun (t, _) -> Compile_plan.support_of_target t) jobs)
      in
      Alcotest.(check int)
        "one build per support"
        (List.length supports)
        (List.length
           (List.filter
              (fun (b : Compiler.result) -> not b.Compiler.plan.Compiler.cache_hit)
              batch));
      List.iter2
        (fun (target, t_tar) (b : Compiler.result) ->
          let r =
            Compiler.compile ~options ~aais:ryd.Rydberg.aais ~target ~t_tar ()
          in
          check_bits_arr "batch env" r.Compiler.env b.Compiler.env;
          check_bits "batch t_sim" r.Compiler.t_sim b.Compiler.t_sim;
          check_bits "batch error" r.Compiler.error_l1 b.Compiler.error_l1)
        jobs batch)
    [ (true, jobs); (false, jobs); (false, two_supports) ]

(* ---- td shares one device part across segments ---- *)

let test_td_multi_segment_unchanged () =
  (* the plan-based td path must reproduce the historical pipeline; the
     ramped MIS chain exercises distinct coefficient sets per segment *)
  let ryd = rydberg_for "mis-chain" 5 in
  let model = Qturbo_models.Benchmarks.mis_chain ~n:5 () in
  Compile_plan.clear_caches ();
  let a =
    Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:4 ()
  in
  (* warm: every segment shape is now cached *)
  let b =
    Td_compiler.compile ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0 ~segments:4 ()
  in
  List.iter2
    (fun (x : Td_compiler.segment_result) (y : Td_compiler.segment_result) ->
      check_bits_arr "segment env" x.Td_compiler.env y.Td_compiler.env;
      check_bits "segment duration" x.Td_compiler.duration y.Td_compiler.duration)
    a.Td_compiler.segments b.Td_compiler.segments;
  check_bits "t_sim" a.Td_compiler.t_sim b.Td_compiler.t_sim;
  check_bits "error" a.Td_compiler.error_l1 b.Td_compiler.error_l1

(* Without evolution-time optimisation every segment's dynamic
   bottleneck is padded by [no_opt_padding], exactly as a static
   compile pads its own. *)
let test_td_no_time_opt_pads () =
  let ryd = rydberg_for "mis-chain" 5 in
  let model = Qturbo_models.Benchmarks.mis_chain ~n:5 () in
  let compile options =
    Td_compiler.compile ~options ~aais:ryd.Rydberg.aais ~model ~t_tar:1.0
      ~segments:4 ()
  in
  let opt = compile Compiler.default_options in
  let padded =
    compile { Compiler.default_options with Compiler.time_opt = false }
  in
  Alcotest.(check bool)
    (Printf.sprintf "padded %g > optimised %g" padded.Td_compiler.t_sim
       opt.Td_compiler.t_sim)
    true
    (padded.Td_compiler.t_sim > opt.Td_compiler.t_sim);
  Alcotest.(check bool) "still accurate" true
    (padded.Td_compiler.relative_error < 1.0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "plan"
    [
      ( "golden",
        [
          quick "td single segment == static compile" test_td_single_segment_golden;
          quick "td multi segment, cold == warm" test_td_multi_segment_unchanged;
          quick "td time_opt=false pads every segment" test_td_no_time_opt_pads;
        ] );
      ( "validation",
        [ quick "non-finite t_tar rejected (QT016)" test_compiler_rejects_nonfinite_t_tar ] );
      ( "keys",
        [
          quick "structural key sensitivity" test_plan_key_ignores_coefficients;
          QCheck_alcotest.to_alcotest prop_plan_key_coefficient_invariant;
          quick "device-key digests match the goldens" test_key_digest_goldens;
        ] );
      ( "cache",
        [
          quick "bounded LRU semantics" test_plan_cache_lru;
          quick "hit/miss counters and disable" test_cache_stats_counters;
          quick "equal devices built apart share a plan" test_equal_devices_share_plan;
          QCheck_alcotest.to_alcotest prop_cached_solve_bitwise_domains_1;
          QCheck_alcotest.to_alcotest prop_cached_solve_bitwise_domains_4;
          quick "one ulp of one bound misses" test_one_ulp_bound_misses;
          quick "a grown pool re-keys and misses" test_pool_growth_rekeys;
          quick "acceptance predicate confirms hits" test_plan_cache_accept;
          quick "warm obtain allocates under 64 KB" test_warm_obtain_allocation;
        ] );
      ( "allocation",
        [
          quick "closed-form components under 24 MB" test_closed_form_solve_allocation;
          quick "closed-form bytes grow at most 3.5x for 3x components"
            test_closed_form_solve_growth;
          quick "ising-cycle n=93 position solve under 28 MB"
            test_position_solve_allocation;
          quick "rydberg ising-cycle n=1000 instantiate under 16 MB"
            test_instantiate_allocation_rydberg;
          quick "iontrap ising-chain n=93 instantiate under 50 MB"
            test_instantiate_allocation_iontrap;
          quick "cold ising-cycle n=93 build under 32 MB" test_cold_build_allocation;
          quick "warm ising-cycle n=93 solve under 14 MB" test_warm_solve_allocation;
          quick "kitaev n=93 diagnose under 1 MB" test_diagnose_allocation;
          quick "warm kitaev n=93 solve under 12 MB"
            test_warm_kitaev_solve_allocation;
          quick "rydberg ising-cycle n=93 instantiate under 10 MB"
            test_instantiate_allocation_planar;
        ] );
      ( "staging",
        [
          quick "plan-build and cache-hit hooks" test_stage_hook_plan_build;
          quick "compile_batch == individual compiles" test_compile_batch_matches_individual;
        ] );
    ]
