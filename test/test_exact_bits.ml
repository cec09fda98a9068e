(* Exact-bits regression suite.

   Every other "golden" test compares two live code paths with each
   other, so a change that moves both the same way passes unnoticed.
   Here the expected values are literals: the hex-float rendering of
   [t_sim], [error_l1] and the Theorem-1 bound, an MD5 over the
   hex-float rendering of the whole variable assignment (for a
   time-dependent compile: every segment's [env] and duration), the
   classified failure list, and the backend verifier's [error_l1],
   [relative_error] and [max_term_error] (for a time-dependent compile:
   per segment, against that segment's discretized Hamiltonian).  A
   refactor of the numeric back end or of the verifier that claims to
   preserve output must keep every row below unchanged.

   Fault injection is always explicit ([Fault.empty] for the clean
   cases), so the suite means the same under any [QTURBO_FAULTS]; the
   pool width comes from [QTURBO_DOMAINS], and the values hold at every
   width.

   Every Rydberg row whose position component is homogeneous (atom 0
   pinned at the origin) was re-recorded when the position solve's
   magnitude pre-fit became closed-form: its start layout moved by about
   the golden-section search's 1e-10 tolerance in log-scale.  Under that
   re-recording the failure lists stayed identical, [t_sim] stayed
   bit-equal on every static row and within 1e-10 relative on the
   time-dependent ones (whose segment durations stretch to the solved
   layout), and the compiler's and verifier's [error_l1] moved by at
   most 2.4e-8 relative.  The heisenberg and iontrap rows, and the
   translated-layout row (which still takes the search), did not move. *)

open Qturbo_core
module Backend = Qturbo_backend.Backend
module Fault = Qturbo_resilience.Fault
module Failure = Qturbo_resilience.Failure

type observed = {
  t_sim : string;
  error_l1 : string;
  bound : string;  (** [theorem1_bound]; [""] for time-dependent compiles *)
  env_md5 : string;
  failures : (int * string * string * string * bool) list;
      (** (component, site, stage, class, fatal) in pipeline order *)
  verify : string list;
      (** per verified instance (one static target, or each segment):
          the verifier's [error_l1], [relative_error] and
          [max_term_error], [|]-joined *)
}

let hex = Printf.sprintf "%h"
let render_env env = String.concat "," (Array.to_list (Array.map hex env))
let md5 s = Digest.to_hex (Digest.string s)

let failure_row (f : Failure.t) =
  ( f.Failure.component,
    f.Failure.site,
    f.Failure.stage,
    Failure.class_name f.Failure.class_,
    f.Failure.fatal )

let verify_row (report : Verifier.report) =
  String.concat "|"
    [
      hex report.Verifier.error_l1;
      hex report.Verifier.relative_error;
      hex report.Verifier.max_term_error;
    ]

let no_plan =
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
  }

(* One segment of a time-dependent compile, as the verifier reads it:
   its variable values, duration and compiler error. *)
let segment_result (r : Td_compiler.result) (s : Td_compiler.segment_result) =
  {
    Compiler.env = s.Td_compiler.env;
    t_sim = s.Td_compiler.duration;
    alpha_target = [||];
    alpha_achieved = [||];
    error_l1 = s.Td_compiler.error_l1;
    relative_error = 0.0;
    eps1 = s.Td_compiler.eps1;
    eps2_total = 0.0;
    theorem1_bound = infinity;
    components = [];
    constraint_iterations = 0;
    compile_seconds = 0.0;
    warnings = [];
    diagnostics = [];
    failures = r.Td_compiler.failures;
    degraded = r.Td_compiler.degraded;
    plan = no_plan;
  }

let options ?(faults = Fault.empty) ?(best_effort = false) f =
  f
    {
      Compiler.default_options with
      Compiler.faults = Some faults;
      best_effort;
    }

let static_on ~aais ~verify ?(tweak = Fun.id) ?faults ?best_effort ~model ~n
    () =
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.by_name ~name:model ~n)
         ~s:0.0)
  in
  let r =
    Compiler.compile
      ~options:(options ?faults ?best_effort tweak)
      ~aais ~target ~t_tar:1.0 ()
  in
  {
    t_sim = hex r.Compiler.t_sim;
    error_l1 = hex r.Compiler.error_l1;
    bound = hex r.Compiler.theorem1_bound;
    env_md5 = md5 (render_env r.Compiler.env);
    failures = List.map failure_row r.Compiler.failures;
    verify = [ verify_row (verify ~target ~t_tar:1.0 r) ];
  }

let static ?(backend = Backend.rydberg) ?device ?cutoff ?tweak ?faults
    ?best_effort ~model ~n () =
  let inst =
    backend.Backend.instantiate ?device ?cutoff ~model_name:model ~n ()
  in
  static_on ~aais:inst.Backend.aais ~verify:inst.Backend.verify ?tweak ?faults
    ?best_effort ~model ~n ()

(* ising-chain n=5 on the paper's device with the layout rigidly
   translated so atom 0 is pinned at x = 37.5 µm.  The plan cache is
   off: the translated device keys equal to the untranslated one, and
   this row must solve on its own variables. *)
let translated_chain () =
  let ryd =
    Qturbo_aais.Rydberg.build_at ~origin:(37.5, 0.0)
      ~spec:Qturbo_aais.Device.aquila_paper ~n:5
  in
  static_on ~aais:ryd.Qturbo_aais.Rydberg.aais
    ~verify:(Verifier.verify_rydberg ryd)
    ~tweak:(fun o -> { o with Compiler.plan_cache = false })
    ~model:"ising-chain" ~n:5 ()

let td ?(backend = Backend.rydberg) ?(tweak = Fun.id) ?faults ?best_effort
    ~model ~n ~segments () =
  let inst = backend.Backend.instantiate ~model_name:model ~n () in
  let model = Qturbo_models.Benchmarks.by_name ~name:model ~n in
  let r =
    Td_compiler.compile
      ~options:(options ?faults ?best_effort tweak)
      ~aais:inst.Backend.aais ~model ~t_tar:1.0 ~segments ()
  in
  let tau = 1.0 /. float_of_int segments in
  {
    t_sim = hex r.Td_compiler.t_sim;
    error_l1 = hex r.Td_compiler.error_l1;
    bound = "";
    env_md5 =
      md5
        (String.concat ";"
           (List.map
              (fun (s : Td_compiler.segment_result) ->
                render_env s.Td_compiler.env ^ "|" ^ hex s.Td_compiler.duration)
              r.Td_compiler.segments));
    failures = List.map failure_row r.Td_compiler.failures;
    verify =
      List.map2
        (fun target s ->
          verify_row
            (inst.Backend.verify
               ~target:(Qturbo_pauli.Pauli_sum.drop_identity target)
               ~t_tar:tau (segment_result r s)))
        (Qturbo_models.Model.discretize model ~segments)
        r.Td_compiler.segments;
  }

let faults = Fault.parse_exn

let cases =
  let chain = static ~model:"ising-chain" ~n:5 in
  let mis ?tweak ?faults ?best_effort segments =
    td ?tweak ?faults ?best_effort ~model:"mis-chain" ~n:5 ~segments ()
  in
  let best_effort spec = (faults spec, true) in
  [
    ("rydberg ising-cycle n=23", fun () -> static ~model:"ising-cycle" ~n:23 ());
    ("rydberg ising-cycle n=93", fun () -> static ~model:"ising-cycle" ~n:93 ());
    ( "rydberg ising-cycle n=150 (sparse LM)",
      fun () -> static ~model:"ising-cycle" ~n:150 () );
    ( "heisenberg heis-chain n=6",
      fun () -> static ~backend:Backend.heisenberg ~model:"heis-chain" ~n:6 () );
    ( "iontrap ising-chain n=6",
      fun () -> static ~backend:Backend.iontrap ~model:"ising-chain" ~n:6 () );
    ("rydberg ising-chain n=5", fun () -> chain ());
    ( "rydberg ising-chain n=5 generic local solver",
      fun () ->
        chain
          ~tweak:(fun o -> { o with Compiler.generic_local_solver = true })
          () );
    ( "rydberg ising-chain n=5 refine=false",
      fun () -> chain ~tweak:(fun o -> { o with Compiler.refine = false }) () );
    ( "rydberg ising-chain n=5 time_opt=false",
      fun () -> chain ~tweak:(fun o -> { o with Compiler.time_opt = false }) () );
    ("rydberg mis-chain n=5 K=4", fun () -> mis 4);
    ("rydberg mis-chain n=5 K=6", fun () -> mis 6);
    ( "rydberg mis-chain n=5 K=4 refine=false",
      fun () -> mis ~tweak:(fun o -> { o with Compiler.refine = false }) 4 );
    ( "rydberg mis-chain n=5 K=4 generic local solver",
      fun () ->
        mis
          ~tweak:(fun o -> { o with Compiler.generic_local_solver = true })
          4 );
    ( "iontrap qaoa-chain n=5 K=4",
      fun () ->
        td ~backend:Backend.iontrap ~model:"qaoa-chain" ~n:5 ~segments:4 () );
  ]
  @ List.map
      (fun spec ->
        ( "static best-effort " ^ spec,
          fun () ->
            let faults, best_effort = best_effort spec in
            chain ~faults ~best_effort () ))
      [ "lm=nan"; "constraint-loop=retry"; "refine=deadline"; "*=nan" ]
  @ List.map
      (fun spec ->
        ( "td K=4 best-effort " ^ spec,
          fun () ->
            let faults, best_effort = best_effort spec in
            mis ~faults ~best_effort 4 ))
      [
        "*=nan";
        "segment-loop=deadline";
        "constraint-loop=retry";
        "refine=deadline";
        "fixed-solve=deadline";
      ]
  @ [
      ( "rydberg ising-cycle n=300 cutoff 45um",
        fun () -> static ~cutoff:"45" ~model:"ising-cycle" ~n:300 () );
      ( "rydberg mis-chain n=5 K=4 time_opt=false",
        fun () ->
          mis ~tweak:(fun o -> { o with Compiler.time_opt = false }) 4 );
      (* the LU position solve past its first gradient test (4 LM
         iterations), and the closed-form components at scale *)
      ("rydberg kitaev n=93", fun () -> static ~model:"kitaev" ~n:93 ());
      ( "heisenberg heis-chain n=300",
        fun () ->
          static ~backend:Backend.heisenberg ~model:"heis-chain" ~n:300 () );
      ( "iontrap ising-chain n=40",
        fun () -> static ~backend:Backend.iontrap ~model:"ising-chain" ~n:40 ()
      );
      ( "heisenberg qaoa-chain n=300 K=4",
        fun () ->
          td ~backend:Backend.heisenberg ~model:"qaoa-chain" ~n:300 ~segments:4
            () );
      (* global control: one linear component over 12 detuning channels
         and one polar component over 24 Rabi channels, both with a
         nonzero least-squares residual, so the closed forms' eps2
         accumulation order reaches the Theorem-1 bound *)
      ( "rydberg ising-chain n=12 global control",
        fun () -> static ~device:"aquila" ~model:"ising-chain" ~n:12 () );
      ("rydberg ising-chain n=5 translated layout", translated_chain);
      ( "rydberg mis-chain n=5 K=4 dense linear solver",
        fun () ->
          mis ~tweak:(fun o -> { o with Compiler.dense_linear_solver = true }) 4
      );
    ]
  @ List.map
      (fun segments ->
        ( Printf.sprintf
            "td K=%d generic local solver best-effort min-time=deadline"
            segments,
          fun () ->
            let faults, best_effort = best_effort "min-time=deadline" in
            mis
              ~tweak:(fun o -> { o with Compiler.generic_local_solver = true })
              ~faults ~best_effort segments ))
      [ 4; 1 ]

(* Every stage of a supervised solve's escalation ladder failing, as the
   supervisor records it for one component at [site]. *)
let ladder ~site component =
  [
    (component, site, "lm", "numeric-invalid", false);
    (component, site, "lm-retry", "numeric-invalid", false);
    (component, site, "nelder-mead", "non-convergence", false);
    (component, site, "multistart", "numeric-invalid", true);
  ]

let min_time_expired component =
  (component, "min-time", "", "deadline-expired", false)

(* mis-chain n=5 under the generic local solver: components 1-10 are the
   dynamic ones, component 0 the positions *)
let dynamic_components = List.init 10 succ

(* the same records from each of the four segments, in segment order *)
let per_segment records = List.concat (List.init 4 (fun _ -> records))

(* recorded at the commit that introduced this suite; the [verify]
   rows and the n=300 cutoff and K=4 time_opt=false cases were recorded
   before the verifier's streaming comparison replaced the map-based one,
   and the kitaev n=93, heis-chain n=300, ising-chain n=40, qaoa-chain
   n=300 and global-control cases before the closed-form components, the
   LU position solve and the greedy linear solve moved onto scratch
   slots and CSR arrays.  The Rydberg rows but the translated layout were
   re-recorded with the closed-form magnitude pre-fit (see the header);
   the translated-layout row was recorded before it.  The rows from
   "td K=4 best-effort refine=deadline" on were recorded before the
   time-dependent driver moved into [Compile_plan]: they pin the rules
   that differ between one segment and several. *)
let expected =
  [
    ( "rydberg ising-cycle n=23",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.bd824782b266ep-2";
        bound = "0x1.4e21b5a205cd1p+0";
        env_md5 = "3317af995b278d89df82b0c711a01c11";
        failures = [];
        verify = [ "0x1.bd824782b26e4p-2|0x1.e43fb1e71afd6p-1|0x1.0eb5bdeadeb3bp-6" ];
      } );
    ( "rydberg ising-cycle n=93",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.a4790927d1b73p+0";
        bound = "0x1.3b5ac6dddd498p+2";
        env_md5 = "b4a8f23826d55c2f867a3c9b9173d7ac";
        failures = [];
        verify = [ "0x1.a4790927d1c85p+0|0x1.c41f0c98ec955p-1|0x1.00d07d87ff24ap-6" ];
      } );
    ( "rydberg ising-cycle n=150 (sparse LM)",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.31052ff4de3f2p+1";
        bound = "0x1.c987c7ef4d5ecp+2";
        env_md5 = "2dde8fa6c4281e2def1bce9cec9888aa";
        failures = [];
        verify = [ "0x1.946a76911c081p+1|0x1.0d9c4f0b68056p+0|0x1.00463ee2356ebp-6" ];
      } );
    ( "rydberg ising-cycle n=300 cutoff 45um",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.5108135fba85ep+2";
        bound = "0x1.f98c1d0f97c87p+3";
        env_md5 = "e9fbfb7794af994fb044910f9bb23963";
        failures = [];
        verify = [ "0x1.533e0e0f7144ep+2|0x1.c452bd69ec5bdp-1|0x1.00056cc1b58c9p-6" ];
      } );
    ( "heisenberg heis-chain n=6",
      {
        t_sim = "0x1p+0";
        error_l1 = "0x0p+0";
        bound = "0x0p+0";
        env_md5 = "4cf2e8f27e6f82565aac38335253e97b";
        failures = [];
        verify = [ "0x0p+0|0x0p+0|0x0p+0" ];
      } );
    ( "iontrap ising-chain n=6",
      {
        t_sim = "0x1.5555555555555p-1";
        error_l1 = "0x0p+0";
        bound = "0x0p+0";
        env_md5 = "f1ee827326ae308d6938a5b629b29426";
        failures = [];
        verify = [ "0x0p+0|0x0p+0|0x0p+0" ];
      } );
    ( "rydberg ising-chain n=5",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6bd529c3db4p-5";
        bound = "0x1.36d0dfdf52e47p-3";
        env_md5 = "4b904fd078d8a37cdff85e84bd53767d";
        failures = [];
        verify = [ "0x1.9e6bd529c3e81p-5|0x1.1fcae2408f284p-1|0x1.ffe7e12069995p-7" ];
      } );
    ( "rydberg ising-chain n=5 generic local solver",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6c36cc19894p-5";
        bound = "0x1.36d129191326fp-3";
        env_md5 = "f65f474cc79eb533bfa2aac31551e4e7";
        failures = [];
        verify = [ "0x1.9e6c36cc198fbp-5|0x1.1fcb260dbc6aep-1|0x1.ffe7e12069995p-7" ];
      } );
    ( "rydberg ising-chain n=5 refine=false",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.30c92c9545b84p-3";
        bound = "0x1.36d0dfdf52e47p-3";
        env_md5 = "e972fac6151d66492c4fafb376e38927";
        failures = [];
        verify = [ "0x1.30c92c9545b8dp-3|0x1.a7504c24a7f28p+0|0x1.f7dd99d7c1ccdp-6" ];
      } );
    ( "rydberg ising-chain n=5 time_opt=false",
      {
        t_sim = "0x1.3333333333334p+1";
        error_l1 = "0x1.9e6bd529c3c1bp-5";
        bound = "0x1.36d0dfdf52d14p-3";
        env_md5 = "952793bf2cfe1c3e279c7b151b593375";
        failures = [];
        verify = [ "0x1.9e6bd529c3c68p-5|0x1.1fcae2408f11p-1|0x1.ffe7e1206999bp-7" ];
      } );
    ( "rydberg mis-chain n=5 K=4",
      {
        t_sim = "0x1.99b355b54c1dcp-2";
        error_l1 = "0x1.9a807eea54b26p-7";
        bound = "";
        env_md5 = "f351b926e3baed32a40d4eb7ef3a2ac6";
        failures = [];
        verify = [
            "0x1.9a807eea54be6p-9|0x1.5be20c1906bb6p-3|0x1.0004055f8945ep-10";
            "0x1.9a807eea54be6p-9|0x1.a2e128b06b5efp-3|0x1.0004055f8945ep-10";
            "0x1.9a807eea54beep-9|0x1.07246b9cc6bcp-2|0x1.0004055f8945ep-10";
            "0x1.9a807eea54b9ep-9|0x1.36fc7f2da508fp-2|0x1.0004055f8945ep-10";
          ];
      } );
    ( "rydberg mis-chain n=5 K=6",
      {
        t_sim = "0x1.99b355b54c1dbp-2";
        error_l1 = "0x1.9a807eea54b0ap-7";
        bound = "";
        env_md5 = "1f714073e3f7d8c0f30166ed54a2118e";
        failures = [];
        verify = [
            "0x1.11aaff46e31fep-9|0x1.525365c991c0cp-3|0x1.555ab1d4b707dp-11";
            "0x1.11aaff46e31fep-9|0x1.7c1829a990c8dp-3|0x1.555ab1d4b707dp-11";
            "0x1.11aaff46e322ep-9|0x1.b1a0f9721fc96p-3|0x1.555ab1d4b707dp-11";
            "0x1.11aaff46e3206p-9|0x1.f8b72abb63ee2p-3|0x1.555ab1d4b707dp-11";
            "0x1.11aaff46e321fp-9|0x1.2dd6f3e88992bp-2|0x1.555ab1d4b707dp-11";
            "0x1.11aaff46e3242p-9|0x1.3a28de845080ep-2|0x1.555ab1d4b707dp-11";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 time_opt=false",
      {
        t_sim = "0x1.33468047f9169p+0";
        error_l1 = "0x1.9a807eea54c09p-7";
        bound = "";
        env_md5 = "34c4a92ffcf7d82850ceeead1d6aaceb";
        failures = [];
        verify = [
            "0x1.9a807eea54cdap-9|0x1.5be20c1906c85p-3|0x1.0004055f89462p-10";
            "0x1.9a807eea54c9ap-9|0x1.a2e128b06b6a8p-3|0x1.0004055f89462p-10";
            "0x1.9a807eea54c8ap-9|0x1.07246b9cc6c24p-2|0x1.0004055f89462p-10";
            "0x1.9a807eea54c92p-9|0x1.36fc7f2da5148p-2|0x1.0004055f89462p-10";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 refine=false",
      {
        t_sim = "0x1.99b355b54c1dcp-2";
        error_l1 = "0x1.33e05f2fbf85ap-5";
        bound = "";
        env_md5 = "d6fd3f387c90570f833bd864751821df";
        failures = [];
        verify = [
            "0x1.33e05f2fbf869p-7|0x1.04e98912c5059p-1|0x1.000405662bb8p-9";
            "0x1.33e05f2fbf851p-7|0x1.3a28de84507d5p-1|0x1.000405662bb8p-9";
            "0x1.33e05f2fbf859p-7|0x1.8ab6a16b2a0dbp-1|0x1.000405662bb8p-9";
            "0x1.33e05f2fbf851p-7|0x1.d27abec47783dp-1|0x1.000405662bb7p-9";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 generic local solver",
      {
        t_sim = "0x1.99b45beaa1b1cp-2";
        error_l1 = "0x1.9a8188de8f885p-7";
        bound = "";
        env_md5 = "685d6ecf8c6edd1ff659c9da223ce9df";
        failures = [];
        verify = [
            "0x1.9a8188e6fa985p-9|0x1.5be2ed82a8fa9p-3|0x1.0004055f8946fp-10";
            "0x1.9a8188d54eca5p-9|0x1.a2e23808ae706p-3|0x1.0004055f8946fp-10";
            "0x1.9a8188d5a3b35p-9|0x1.07251612cb65dp-2|0x1.0004055f8946fp-10";
            "0x1.9a8188e8510adp-9|0x1.36fd48afff55cp-2|0x1.0004055f8946fp-10";
          ];
      } );
    ( "iontrap qaoa-chain n=5 K=4",
      {
        t_sim = "0x1.aaaaaaaaaaaabp-2";
        error_l1 = "0x0p+0";
        bound = "";
        env_md5 = "4601208f5a3a79195976b25da2e27e6d";
        failures = [];
        verify = [
            "0x0p+0|0x0p+0|0x0p+0";
            "0x0p+0|0x0p+0|0x0p+0";
            "0x0p+0|0x0p+0|0x0p+0";
            "0x0p+0|0x0p+0|0x0p+0";
          ];
      } );
    ( "static best-effort lm=nan",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6bd57a43561p-5";
        bound = "0x1.36d0e01bb2809p-3";
        env_md5 = "34deb4f76238f9ebcbbf982655160a0d";
        failures = [
            (0, "fixed-solve", "lm", "numeric-invalid", false);
          ];
        verify = [ "0x1.9e6bd57a435c6p-5|0x1.1fcae27875e3cp-1|0x1.ffe7e11eb84b8p-7" ];
      } );
    ( "static best-effort constraint-loop=retry",
      {
        t_sim = "0x1.52d02c7e14af6p+7";
        error_l1 = "0x1.9e6bd529c3e14p-5";
        bound = "0x1.36d0dfdf52e8fp-3";
        env_md5 = "8ecc775cf645ce0236a9f789b43ffe28";
        failures = [
            (-1, "constraint-loop", "", "position-retry-exhausted", false);
          ];
        verify = [ "0x1.9e6bd529c3e68p-5|0x1.1fcae2408f273p-1|0x1.ffe7e12069992p-7" ];
      } );
    ( "static best-effort refine=deadline",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.30c92c9545b84p-3";
        bound = "0x1.36d0dfdf52e47p-3";
        env_md5 = "e972fac6151d66492c4fafb376e38927";
        failures = [
            (-1, "refine", "", "deadline-expired", false);
          ];
        verify = [ "0x1.30c92c9545b8dp-3|0x1.a7504c24a7f28p+0|0x1.f7dd99d7c1ccdp-6" ];
      } );
    ( "static best-effort *=nan",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.09283ba44f9f2p+1";
        bound = "0x1.8dbc5976776e8p+2";
        env_md5 = "8fd11c962864603135385c19b00c14ac";
        failures = [
            (0, "fixed-solve", "lm", "numeric-invalid", false);
            (0, "fixed-solve", "lm-retry", "numeric-invalid", false);
            (0, "fixed-solve", "nelder-mead", "non-convergence", false);
            (0, "fixed-solve", "multistart", "numeric-invalid", true);
          ];
        verify = [ "0x1.09283ba44f9f2p+1|0x1.704619f26e95fp+4|0x1.1226344281d52p+0" ];
      } );
    ( "td K=4 best-effort *=nan",
      {
        t_sim = "0x1.8817d8d639ebcp-1";
        error_l1 = "0x1.fb8ecb28f85f4p-1";
        bound = "";
        env_md5 = "11c2160b7008f1bae4c504d05acfe021";
        failures = [
            (0, "fixed-solve", "lm", "numeric-invalid", false);
            (0, "fixed-solve", "lm-retry", "numeric-invalid", false);
            (0, "fixed-solve", "nelder-mead", "non-convergence", false);
            (0, "fixed-solve", "multistart", "numeric-invalid", true);
          ];
        verify = [
            "0x1.fb8ecb28f85fdp-3|0x1.ae223b5b2096ap+3|0x1.7b7d6d90417a7p-3";
            "0x1.fb8ecb28f85fap-3|0x1.02f54314e736p+4|0x1.7b7d6d90417a7p-3";
            "0x1.fb8ecb28f85f9p-3|0x1.455b88cb7e64bp+4|0x1.7b7d6d90417a7p-3";
            "0x1.fb8ecb28f85fbp-3|0x1.8083731f09bcdp+4|0x1.7b7d6d90417a7p-3";
          ];
      } );
    ( "td K=4 best-effort segment-loop=deadline",
      {
        t_sim = "0x1.99b355b54c1dcp-2";
        error_l1 = "0x1.9a807eea54b26p-7";
        bound = "";
        env_md5 = "f351b926e3baed32a40d4eb7ef3a2ac6";
        failures = [
            (-1, "segment-loop", "", "deadline-expired", false);
          ];
        verify = [
            "0x1.9a807eea54be6p-9|0x1.5be20c1906bb6p-3|0x1.0004055f8945ep-10";
            "0x1.9a807eea54be6p-9|0x1.a2e128b06b5efp-3|0x1.0004055f8945ep-10";
            "0x1.9a807eea54beep-9|0x1.07246b9cc6bcp-2|0x1.0004055f8945ep-10";
            "0x1.9a807eea54b9ep-9|0x1.36fc7f2da508fp-2|0x1.0004055f8945ep-10";
          ];
      } );
    ( "td K=4 best-effort constraint-loop=retry",
      {
        t_sim = "0x1.52e5760c4170ep+6";
        error_l1 = "0x1.9a807eea54dd4p-7";
        bound = "";
        env_md5 = "d058f0442c847dbaac84b579b94ad87f";
        failures = [
            (-1, "constraint-loop", "", "position-retry-exhausted", false);
          ];
        verify = [
            "0x1.9a807eea54f2cp-9|0x1.5be20c1906e7cp-3|0x1.0004055f89466p-10";
            "0x1.9a807eea54eacp-9|0x1.a2e128b06b8c4p-3|0x1.0004055f89466p-10";
            "0x1.9a807eea54ebcp-9|0x1.07246b9cc6d8cp-2|0x1.0004055f89466p-10";
            "0x1.9a807eea54eb4p-9|0x1.36fc7f2da52e5p-2|0x1.0004055f89466p-10";
          ];
      } );
    ( "rydberg kitaev n=93",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.99150dd940d42p-1";
        bound = "0x1.32cfca62f09f1p+1";
        env_md5 = "5a6c6aa545fa70fe3a8a880ba0731b2d";
        failures = [];
        verify = [ "0x1.99150dd940e3fp-1|0x1.60a8381390374p-2|0x1.ffe7e0f5eb0ccp-8" ];
      } );
    ( "heisenberg heis-chain n=300",
      {
        t_sim = "0x1p+0";
        error_l1 = "0x0p+0";
        bound = "0x0p+0";
        env_md5 = "1fe9149d7108a1e420129dff2f23e0e2";
        failures = [];
        verify = [ "0x0p+0|0x0p+0|0x0p+0" ];
      } );
    ( "iontrap ising-chain n=40",
      {
        t_sim = "0x1.5555555555555p-1";
        error_l1 = "0x0p+0";
        bound = "0x0p+0";
        env_md5 = "5bddd50a4a96a191a5acc4109ed446fe";
        failures = [];
        verify = [ "0x0p+0|0x0p+0|0x0p+0" ];
      } );
    ( "rydberg ising-chain n=12 global control",
      {
        t_sim = "0x1.033d91d2a2067p-3";
        error_l1 = "0x1.cbb00c2ae3e9dp+1";
        bound = "0x1.58c409202aef6p+3";
        env_md5 = "615c61a2a0e41fc7a2488dbeb76a075f";
        failures = [];
        verify = [ "0x1.cbb00c2ae3e96p+1|0x1.f3a9185b24408p+3|0x1.b2b7ee584c11dp-1" ];
      } );
    ( "heisenberg qaoa-chain n=300 K=4",
      {
        t_sim = "0x1.051eb851eb852p-1";
        error_l1 = "0x0p+0";
        bound = "";
        env_md5 = "327b7300c6bd51a0fa004b9d13ca7c95";
        failures = [];
        verify = [
            "0x0p+0|0x0p+0|0x0p+0";
            "0x0p+0|0x0p+0|0x0p+0";
            "0x0p+0|0x0p+0|0x0p+0";
            "0x0p+0|0x0p+0|0x0p+0";
          ];
      } );
    ( "rydberg ising-chain n=5 translated layout",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6bd576ca6a4p-5";
        bound = "0x1.36d0e01917cfbp-3";
        env_md5 = "e0fe99f6bf603d89264542aedc6842d4";
        failures = [];
        verify = [ "0x1.9e6bd576ca6aep-5|0x1.1fcae2760c916p-1|0x1.ffe7e11ecd41dp-7" ];
      } );
    ( "td K=4 best-effort refine=deadline",
      {
        t_sim = "0x1.99b355b54c1dcp-2";
        error_l1 = "0x1.9a807eea54b26p-7";
        bound = "";
        env_md5 = "f351b926e3baed32a40d4eb7ef3a2ac6";
        failures = [];
        verify = [
            "0x1.9a807eea54be6p-9|0x1.5be20c1906bb6p-3|0x1.0004055f8945ep-10";
            "0x1.9a807eea54be6p-9|0x1.a2e128b06b5efp-3|0x1.0004055f8945ep-10";
            "0x1.9a807eea54beep-9|0x1.07246b9cc6bcp-2|0x1.0004055f8945ep-10";
            "0x1.9a807eea54b9ep-9|0x1.36fc7f2da508fp-2|0x1.0004055f8945ep-10";
          ];
      } );
    ( "td K=4 best-effort fixed-solve=deadline",
      {
        t_sim = "0x1.99ace6749749fp-2";
        error_l1 = "0x1.987980e0bf379p-7";
        bound = "";
        env_md5 = "614150fa2a7d9a29f28eef8956237649";
        failures = [ (0, "fixed-solve", "", "deadline-expired", true) ];
        verify = [
            "0x1.987980e0bf439p-9|0x1.5a2a39269969p-3|0x1.000000000000bp-10";
            "0x1.987980e0bf419p-9|0x1.a0cf932e7a044p-3|0x1.000000000000bp-10";
            "0x1.987980e0bf409p-9|0x1.05d7bba3c2cd8p-2|0x1.000000000000bp-10";
            "0x1.987980e0bf409p-9|0x1.3573521ea0673p-2|0x1.000000000000bp-10";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 dense linear solver",
      {
        t_sim = "0x1.99b355b54c1dfp-2";
        error_l1 = "0x1.9a807eea54c56p-7";
        bound = "";
        env_md5 = "a1fd43b2951b1af22f5fcf5f2e186249";
        failures = [];
        verify = [
            "0x1.9a807eea54d86p-9|0x1.5be20c1906d17p-3|0x1.0004055f8946p-10";
            "0x1.9a807eea54c44p-9|0x1.a2e128b06b65p-3|0x1.0004055f8945fp-10";
            "0x1.9a807eea54cf6p-9|0x1.07246b9cc6c6ap-2|0x1.0004055f8946p-10";
            "0x1.9a807eea54d06p-9|0x1.36fc7f2da51ap-2|0x1.0004055f8946p-10";
          ];
      } );
    (* every segment's dynamic bottleneck is infinite, so the layout is
       solved at T = infinity and so is every segment *)
    ( "td K=4 generic local solver best-effort min-time=deadline",
      {
        t_sim = "infinity";
        error_l1 = "nan";
        bound = "";
        env_md5 = "f80b480dacb21a9733f7f4d51efa7071";
        failures =
          per_segment (List.map min_time_expired dynamic_components)
          @ ladder ~site:"fixed-solve" 0
          @ [ (-1, "constraint-loop", "", "position-retry-exhausted", false) ]
          @ per_segment
              (List.concat_map (ladder ~site:"local-solve") dynamic_components);
        verify = List.init 4 (fun _ -> "infinity|infinity|infinity");
      } );
    (* the static path starts the constraint loop from the time floor *)
    ( "td K=1 generic local solver best-effort min-time=deadline",
      {
        t_sim = "0x1.6bcc41e9p-8";
        error_l1 = "0x1.3d2d8d9b8ea92p+1";
        bound = "";
        env_md5 = "7368d2fb5d11a522e034bef939cb245c";
        failures = List.map min_time_expired dynamic_components;
        verify =
          [ "0x1.3d2d8d9b8ea9p+1|0x1.686df25f50a8dp+5|0x1.f8e502b675aafp-2" ];
      } );
  ]

let show o =
  Printf.sprintf
    "{ t_sim = %S; error_l1 = %S; bound = %S; env_md5 = %S; failures = [%s]; \
     verify = [%s] }"
    o.t_sim o.error_l1 o.bound o.env_md5
    (String.concat "; "
       (List.map
          (fun (c, site, stage, cls, fatal) ->
            Printf.sprintf "(%d, %S, %S, %S, %b)" c site stage cls fatal)
          o.failures))
    (String.concat "; " (List.map (Printf.sprintf "%S") o.verify))

(* What [observed] leaves out of a time-dependent compile: the binding
   segment, the warnings and the analyzer's findings.  The kitaev rows
   compile non-strictly against a 0.05 us device time limit, so each
   carries 14 findings (13 QT003 and one QT007) and 14 warnings (the
   QT003s and the constraint loop's exhaustion); at K >= 2 the segments'
   findings are deduplicated by (code, subject). *)
type td_facts = {
  binding_segment : int;
  warnings : int;
  warnings_md5 : string;  (** over the newline-joined list *)
  diagnostics_md5 : string;  (** over [Diagnostic.list_to_json] *)
}

let td_facts ?(tweak = Fun.id) ?(strict = true) ?t_max ~model ~n ~segments ()
    =
  let inst = Backend.rydberg.Backend.instantiate ~model_name:model ~n () in
  let r =
    Td_compiler.compile ~options:(options tweak) ~strict ?t_max
      ~aais:inst.Backend.aais
      ~model:(Qturbo_models.Benchmarks.by_name ~name:model ~n)
      ~t_tar:1.0 ~segments ()
  in
  {
    binding_segment = r.Td_compiler.binding_segment;
    warnings = List.length r.Td_compiler.warnings;
    warnings_md5 = md5 (String.concat "\n" r.Td_compiler.warnings);
    diagnostics_md5 =
      md5 (Qturbo_analysis.Diagnostic.list_to_json r.Td_compiler.diagnostics);
  }

let facts_cases =
  List.map
    (fun segments ->
      ( Printf.sprintf "kitaev n=13 K=%d non-strict t_max=0.05" segments,
        fun () ->
          td_facts ~strict:false ~t_max:0.05 ~model:"kitaev" ~n:13 ~segments
            () ))
    [ 1; 2; 4 ]
  @ [
      ( "rydberg mis-chain n=5 K=4",
        fun () -> td_facts ~model:"mis-chain" ~n:5 ~segments:4 () );
      (* the one time-dependent case tried whose binding segment is not 0 *)
      ( "rydberg mis-chain n=5 K=4 dense linear solver",
        fun () ->
          td_facts
            ~tweak:(fun o -> { o with Compiler.dense_linear_solver = true })
            ~model:"mis-chain" ~n:5 ~segments:4 () );
    ]

(* recorded before the time-dependent driver moved into [Compile_plan] *)
let expected_facts =
  [
    ( "kitaev n=13 K=1 non-strict t_max=0.05",
      {
        binding_segment = 0;
        warnings = 14;
        warnings_md5 = "194bef016f725a3dd8310ba397863243";
        diagnostics_md5 = "84cbba1f5754b0c34f5a1132ccc9c5ef";
      } );
    ( "kitaev n=13 K=2 non-strict t_max=0.05",
      {
        binding_segment = 0;
        warnings = 14;
        warnings_md5 = "95c69cf939d459cca605c4d8941689dc";
        diagnostics_md5 = "95cc9ec8c624beb5e2cbb67e2a451237";
      } );
    ( "kitaev n=13 K=4 non-strict t_max=0.05",
      {
        binding_segment = 0;
        warnings = 14;
        warnings_md5 = "1b40683534a2b72358d48b9f7ada9b1a";
        diagnostics_md5 = "31df9ce36522bee02817ec1cfcc8c073";
      } );
    ( "rydberg mis-chain n=5 K=4",
      {
        binding_segment = 0;
        warnings = 0;
        warnings_md5 = "d41d8cd98f00b204e9800998ecf8427e";
        diagnostics_md5 = "4d5d42154e34ec2e2879dbd506b4b0a1";
      } );
    ( "rydberg mis-chain n=5 K=4 dense linear solver",
      {
        binding_segment = 1;
        warnings = 0;
        warnings_md5 = "d41d8cd98f00b204e9800998ecf8427e";
        diagnostics_md5 = "4d5d42154e34ec2e2879dbd506b4b0a1";
      } );
  ]

let show_facts f =
  Printf.sprintf
    "{ binding_segment = %d; warnings = %d; warnings_md5 = %S; \
     diagnostics_md5 = %S }"
    f.binding_segment f.warnings f.warnings_md5 f.diagnostics_md5

let check_facts (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let got = run () in
      match List.assoc_opt name expected_facts with
      | None ->
          Alcotest.failf "%s: no recorded values; got %s" name (show_facts got)
      | Some e when got <> e ->
          Alcotest.failf "%s drifted:\n  expected %s\n  got      %s" name
            (show_facts e) (show_facts got)
      | Some _ -> ())

let check (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let got = run () in
      match List.assoc_opt name expected with
      | None -> Alcotest.failf "%s: no recorded values; got %s" name (show got)
      | Some e when got <> e ->
          Alcotest.failf "%s drifted:\n  expected %s\n  got      %s" name
            (show e) (show got)
      | Some _ -> ())

let () =
  Alcotest.run "exact-bits"
    [
      ("exact-bits", List.map check cases);
      ("td-facts", List.map check_facts facts_cases);
    ]
