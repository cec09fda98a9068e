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
   width. *)

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

let static ?(backend = Backend.rydberg) ?device ?cutoff ?(tweak = Fun.id)
    ?faults ?best_effort ~model ~n () =
  let inst =
    backend.Backend.instantiate ?device ?cutoff ~model_name:model ~n ()
  in
  let target =
    Qturbo_pauli.Pauli_sum.drop_identity
      (Qturbo_models.Model.hamiltonian_at
         (Qturbo_models.Benchmarks.by_name ~name:model ~n)
         ~s:0.0)
  in
  let r =
    Compiler.compile
      ~options:(options ?faults ?best_effort tweak)
      ~aais:inst.Backend.aais ~target ~t_tar:1.0 ()
  in
  {
    t_sim = hex r.Compiler.t_sim;
    error_l1 = hex r.Compiler.error_l1;
    bound = hex r.Compiler.theorem1_bound;
    env_md5 = md5 (render_env r.Compiler.env);
    failures = List.map failure_row r.Compiler.failures;
    verify = [ verify_row (inst.Backend.verify ~target ~t_tar:1.0 r) ];
  }

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
      [ "*=nan"; "segment-loop=deadline"; "constraint-loop=retry" ]
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
    ]

(* recorded at the commit that introduced this suite; the [verify]
   rows and the n=300 cutoff and K=4 time_opt=false cases were recorded
   before the verifier's streaming comparison replaced the map-based one,
   and the kitaev n=93, heis-chain n=300, ising-chain n=40, qaoa-chain
   n=300 and global-control cases before the closed-form components, the
   LU position solve and the greedy linear solve moved onto scratch
   slots and CSR arrays *)
let expected =
  [
    ( "rydberg ising-cycle n=23",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.bd824733144d2p-2";
        bound = "0x1.4e21b5664f39fp+0";
        env_md5 = "48bb4d02f79d0349052a337a35ea9404";
        failures = [];
        verify = [ "0x1.bd824733145a6p-2|0x1.e43fb190908edp-1|0x1.0eb5bdebcd7e3p-6" ];
      } );
    ( "rydberg ising-cycle n=93",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.a4790951f7decp+0";
        bound = "0x1.3b5ac6fd79e7p+2";
        env_md5 = "4b8c611d0d57197a0768457949b43d95";
        failures = [];
        verify = [ "0x1.a4790951f7f9cp+0|0x1.c41f0cc63ef11p-1|0x1.00d07d8788a8bp-6" ];
      } );
    ( "rydberg ising-cycle n=150 (sparse LM)",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.31053045ed196p+1";
        bound = "0x1.c987c868e3a67p+2";
        env_md5 = "73807aa29bada6e5044f7abd71518109";
        failures = [];
        verify = [ "0x1.946a76e1bda6fp+1|0x1.0d9c4f412919fp+0|0x1.00463ee11bfd9p-6" ];
      } );
    ( "rydberg ising-cycle n=300 cutoff 45um",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.510813e9beebfp+2";
        bound = "0x1.f98c1dde9e61ap+3";
        env_md5 = "59f2d0daae181f772684fbae5cd6f158";
        failures = [];
        verify = [ "0x1.533e0e99718d2p+2|0x1.c452be21ecbc2p-1|0x1.00056cbfd5faep-6" ];
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
        error_l1 = "0x1.9e6bd529c315p-5";
        bound = "0x1.36d0dfdf524fcp-3";
        env_md5 = "0de69ce1c463470ab53cff537a6966e8";
        failures = [];
        verify = [ "0x1.9e6bd529c315p-5|0x1.1fcae2408e95bp-1|0x1.ffe7e120699d7p-7" ];
      } );
    ( "rydberg ising-chain n=5 generic local solver",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6c36cc18a1p-5";
        bound = "0x1.36d129191278cp-3";
        env_md5 = "5caf52d059f0a6f70e2ed7a5509857aa";
        failures = [];
        verify = [ "0x1.9e6c36cc18a2fp-5|0x1.1fcb260dbbc68p-1|0x1.ffe7e120699d7p-7" ];
      } );
    ( "rydberg ising-chain n=5 refine=false",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.30c92c9545eccp-3";
        bound = "0x1.36d0dfdf524fcp-3";
        env_md5 = "ea67f8f61003d943b42b1455cd85cb54";
        failures = [];
        verify = [ "0x1.30c92c9545ecp-3|0x1.a7504c24a8399p+0|0x1.f7dd99d7c2ap-6" ];
      } );
    ( "rydberg ising-chain n=5 time_opt=false",
      {
        t_sim = "0x1.3333333333334p+1";
        error_l1 = "0x1.9e6bd529c29dbp-5";
        bound = "0x1.36d0dfdf51f64p-3";
        env_md5 = "3cf373b2af424b01291406248584c3a5";
        failures = [];
        verify = [ "0x1.9e6bd529c2abdp-5|0x1.1fcae2408e4cap-1|0x1.ffe7e12069a05p-7" ];
      } );
    ( "rydberg mis-chain n=5 K=4",
      {
        t_sim = "0x1.99b355b54c1efp-2";
        error_l1 = "0x1.9a807eea54b63p-7";
        bound = "";
        env_md5 = "529ef7194f7a74aee89afb3d59854813";
        failures = [];
        verify = [
            "0x1.9a807eea54c84p-9|0x1.5be20c1906c3cp-3|0x1.0004055f8945bp-10";
            "0x1.9a807eea54be4p-9|0x1.a2e128b06b5eep-3|0x1.0004055f8945bp-10";
            "0x1.9a807eea54c24p-9|0x1.07246b9cc6be2p-2|0x1.0004055f8945bp-10";
            "0x1.9a807eea54c2cp-9|0x1.36fc7f2da50fbp-2|0x1.0004055f8945bp-10";
          ];
      } );
    ( "rydberg mis-chain n=5 K=6",
      {
        t_sim = "0x1.99b355b54c1eep-2";
        error_l1 = "0x1.9a807eea54b83p-7";
        bound = "";
        env_md5 = "f7a6e06f20b7d5b6fa975cd7fb6a80a6";
        failures = [];
        verify = [
            "0x1.11aaff46e327dp-9|0x1.525365c991ca9p-3|0x1.555ab1d4b7079p-11";
            "0x1.11aaff46e331dp-9|0x1.7c1829a990e1cp-3|0x1.555ab1d4b7079p-11";
            "0x1.11aaff46e329dp-9|0x1.b1a0f9721fd45p-3|0x1.555ab1d4b7079p-11";
            "0x1.11aaff46e327dp-9|0x1.f8b72abb63fbcp-3|0x1.555ab1d4b7079p-11";
            "0x1.11aaff46e328dp-9|0x1.2dd6f3e8899a4p-2|0x1.555ab1d4b7079p-11";
            "0x1.11aaff46e32c1p-9|0x1.3a28de84508ap-2|0x1.555ab1d4b7079p-11";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 time_opt=false",
      {
        t_sim = "0x1.33468047f9169p+0";
        error_l1 = "0x1.9a807eea54e56p-7";
        bound = "";
        env_md5 = "8de2ed8d21ac65d50a4520aaff9a8b89";
        failures = [];
        verify = [
            "0x1.9a807eea54f1ep-9|0x1.5be20c1906e7p-3|0x1.0004055f89466p-10";
            "0x1.9a807eea54f1ep-9|0x1.a2e128b06b93ap-3|0x1.0004055f89466p-10";
            "0x1.9a807eea54f0ep-9|0x1.07246b9cc6dcp-2|0x1.0004055f89466p-10";
            "0x1.9a807eea54efep-9|0x1.36fc7f2da531ep-2|0x1.0004055f89466p-10";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 refine=false",
      {
        t_sim = "0x1.99b355b54c1efp-2";
        error_l1 = "0x1.33e05f2fbf883p-5";
        bound = "";
        env_md5 = "b462842269856825be4e193c016b8b1e";
        failures = [];
        verify = [
            "0x1.33e05f2fbf8a1p-7|0x1.04e98912c5089p-1|0x1.000405662bacp-9";
            "0x1.33e05f2fbf8b1p-7|0x1.3a28de8450837p-1|0x1.000405662bbp-9";
            "0x1.33e05f2fbf88dp-7|0x1.8ab6a16b2a11ep-1|0x1.000405662baep-9";
            "0x1.33e05f2fbf889p-7|0x1.d27abec477892p-1|0x1.000405662badp-9";
          ];
      } );
    ( "rydberg mis-chain n=5 K=4 generic local solver",
      {
        t_sim = "0x1.99b45beaa1b1cp-2";
        error_l1 = "0x1.9a8188de8f278p-7";
        bound = "";
        env_md5 = "5f793e9c6671aee02de7f7a4cab02338";
        failures = [];
        verify = [
            "0x1.9a8188e6fa61p-9|0x1.5be2ed82a8cbbp-3|0x1.0004055f8945bp-10";
            "0x1.9a8188d54ea5p-9|0x1.a2e23808ae4a5p-3|0x1.0004055f8945bp-10";
            "0x1.9a8188d5a2f4p-9|0x1.07251612caeb3p-2|0x1.0004055f8945bp-10";
            "0x1.9a8188e85099p-9|0x1.36fd48affeff9p-2|0x1.0004055f8945bp-10";
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
        error_l1 = "0x1.9e6bd57a4359p-5";
        bound = "0x1.36d0e01bb282cp-3";
        env_md5 = "7095a3465850fe4cd416c789e02076e1";
        failures = [
            (0, "fixed-solve", "lm", "numeric-invalid", false);
          ];
        verify = [ "0x1.9e6bd57a435bdp-5|0x1.1fcae27875e35p-1|0x1.ffe7e11eb84cp-7" ];
      } );
    ( "static best-effort constraint-loop=retry",
      {
        t_sim = "0x1.52d02c7e14af6p+7";
        error_l1 = "0x1.9e6bd529c3e05p-5";
        bound = "0x1.36d0dfdf52e84p-3";
        env_md5 = "470676bd68598703c557b2d5fd792e1d";
        failures = [
            (-1, "constraint-loop", "", "position-retry-exhausted", false);
          ];
        verify = [ "0x1.9e6bd529c3e82p-5|0x1.1fcae2408f285p-1|0x1.ffe7e12069989p-7" ];
      } );
    ( "static best-effort refine=deadline",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.30c92c9545eccp-3";
        bound = "0x1.36d0dfdf524fcp-3";
        env_md5 = "ea67f8f61003d943b42b1455cd85cb54";
        failures = [
            (-1, "refine", "", "deadline-expired", false);
          ];
        verify = [ "0x1.30c92c9545ecp-3|0x1.a7504c24a8399p+0|0x1.f7dd99d7c2ap-6" ];
      } );
    ( "static best-effort *=nan",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.09283ba456dd5p+1";
        bound = "0x1.8dbc5976824c1p+2";
        env_md5 = "1a2d693e98202e5483ec67b092e406f3";
        failures = [
            (0, "fixed-solve", "lm", "numeric-invalid", false);
            (0, "fixed-solve", "lm-retry", "numeric-invalid", false);
            (0, "fixed-solve", "nelder-mead", "non-convergence", false);
            (0, "fixed-solve", "multistart", "numeric-invalid", true);
          ];
        verify = [ "0x1.09283ba456dd8p+1|0x1.704619f278a56p+4|0x1.1226344425294p+0" ];
      } );
    ( "td K=4 best-effort *=nan",
      {
        t_sim = "0x1.8817d8d6cddd5p-1";
        error_l1 = "0x1.fb8ecb28f85adp-1";
        bound = "";
        env_md5 = "b96c2084bf815f75540c8c82c3161fc2";
        failures = [
            (0, "fixed-solve", "lm", "numeric-invalid", false);
            (0, "fixed-solve", "lm-retry", "numeric-invalid", false);
            (0, "fixed-solve", "nelder-mead", "non-convergence", false);
            (0, "fixed-solve", "multistart", "numeric-invalid", true);
          ];
        verify = [
            "0x1.fb8ecb28f85b4p-3|0x1.ae223b5b2092cp+3|0x1.7b7d6d9041763p-3";
            "0x1.fb8ecb28f85b4p-3|0x1.02f54314e733cp+4|0x1.7b7d6d9041763p-3";
            "0x1.fb8ecb28f85b2p-3|0x1.455b88cb7e61cp+4|0x1.7b7d6d9041763p-3";
            "0x1.fb8ecb28f85b2p-3|0x1.8083731f09b97p+4|0x1.7b7d6d9041763p-3";
          ];
      } );
    ( "td K=4 best-effort segment-loop=deadline",
      {
        t_sim = "0x1.99b355b54c1efp-2";
        error_l1 = "0x1.9a807eea54b63p-7";
        bound = "";
        env_md5 = "529ef7194f7a74aee89afb3d59854813";
        failures = [
            (-1, "segment-loop", "", "deadline-expired", false);
          ];
        verify = [
            "0x1.9a807eea54c84p-9|0x1.5be20c1906c3cp-3|0x1.0004055f8945bp-10";
            "0x1.9a807eea54be4p-9|0x1.a2e128b06b5eep-3|0x1.0004055f8945bp-10";
            "0x1.9a807eea54c24p-9|0x1.07246b9cc6be2p-2|0x1.0004055f8945bp-10";
            "0x1.9a807eea54c2cp-9|0x1.36fc7f2da50fbp-2|0x1.0004055f8945bp-10";
          ];
      } );
    ( "td K=4 best-effort constraint-loop=retry",
      {
        t_sim = "0x1.52e5760c4171ap+6";
        error_l1 = "0x1.9a807eea54b84p-7";
        bound = "";
        env_md5 = "2455ec4a9aa74927ad7c0f24e276bccf";
        failures = [
            (-1, "constraint-loop", "", "position-retry-exhausted", false);
          ];
        verify = [
            "0x1.9a807eea54c64p-9|0x1.5be20c1906c21p-3|0x1.0004055f89457p-10";
            "0x1.9a807eea54c24p-9|0x1.a2e128b06b62fp-3|0x1.0004055f89457p-10";
            "0x1.9a807eea54c44p-9|0x1.07246b9cc6bf7p-2|0x1.0004055f89457p-10";
            "0x1.9a807eea54c64p-9|0x1.36fc7f2da5125p-2|0x1.0004055f89457p-10";
          ];
      } );
    ( "rydberg kitaev n=93",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.99150dd9d8ep-1";
        bound = "0x1.32cfca6362a7fp+1";
        env_md5 = "ac7ae31fd5966d2851fd9fe5c529e9e6";
        failures = [];
        verify = [ "0x1.99150dd9d8edfp-1|0x1.60a838141348bp-2|0x1.ffe7e0f5e5c5fp-8" ];
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
        error_l1 = "0x1.cbb00c2ae19e1p+1";
        bound = "0x1.58c409202936ap+3";
        env_md5 = "901222b6606c1db4aaddf69f71ee4a44";
        failures = [];
        verify = [ "0x1.cbb00c2ae19e4p+1|0x1.f3a9185b21c25p+3|0x1.b2b7ee5836a71p-1" ];
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

let check (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let got = run () in
      match List.assoc_opt name expected with
      | None -> Alcotest.failf "%s: no recorded values; got %s" name (show got)
      | Some e when got <> e ->
          Alcotest.failf "%s drifted:\n  expected %s\n  got      %s" name
            (show e) (show got)
      | Some _ -> ())

let () = Alcotest.run "exact-bits" [ ("exact-bits", List.map check cases) ]
