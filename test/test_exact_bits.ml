(* Exact-bits regression suite.

   Every other "golden" test compares two live code paths with each
   other, so a change that moves both the same way passes unnoticed.
   Here the expected values are literals: the hex-float rendering of
   [t_sim], [error_l1] and the Theorem-1 bound, an MD5 over the
   hex-float rendering of the whole variable assignment (for a
   time-dependent compile: every segment's [env] and duration), and the
   classified failure list.  A refactor of the numeric back end that
   claims to preserve output must keep every row below unchanged.

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

let options ?(faults = Fault.empty) ?(best_effort = false) f =
  f
    {
      Compiler.default_options with
      Compiler.faults = Some faults;
      best_effort;
    }

let static ?(backend = Backend.rydberg) ?(tweak = Fun.id) ?faults
    ?best_effort ~model ~n () =
  let inst = backend.Backend.instantiate ~model_name:model ~n () in
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
  }

let td ?(backend = Backend.rydberg) ?(tweak = Fun.id) ?faults ?best_effort
    ~model ~n ~segments () =
  let inst = backend.Backend.instantiate ~model_name:model ~n () in
  let r =
    Td_compiler.compile
      ~options:(options ?faults ?best_effort tweak)
      ~aais:inst.Backend.aais
      ~model:(Qturbo_models.Benchmarks.by_name ~name:model ~n)
      ~t_tar:1.0 ~segments ()
  in
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

(* recorded at the commit that introduced this suite *)
let expected =
  [
    ( "rydberg ising-cycle n=23",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.bd824733144d2p-2";
        bound = "0x1.4e21b5664f39fp+0";
        env_md5 = "48bb4d02f79d0349052a337a35ea9404";
        failures = [];
      } );
    ( "rydberg ising-cycle n=93",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.a4790951f7decp+0";
        bound = "0x1.3b5ac6fd79e7p+2";
        env_md5 = "4b8c611d0d57197a0768457949b43d95";
        failures = [];
      } );
    ( "rydberg ising-cycle n=150 (sparse LM)",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.31053045ed196p+1";
        bound = "0x1.c987c868e3a67p+2";
        env_md5 = "73807aa29bada6e5044f7abd71518109";
        failures = [];
      } );
    ( "heisenberg heis-chain n=6",
      {
        t_sim = "0x1p+0";
        error_l1 = "0x0p+0";
        bound = "0x0p+0";
        env_md5 = "4cf2e8f27e6f82565aac38335253e97b";
        failures = [];
      } );
    ( "iontrap ising-chain n=6",
      {
        t_sim = "0x1.5555555555555p-1";
        error_l1 = "0x0p+0";
        bound = "0x0p+0";
        env_md5 = "f1ee827326ae308d6938a5b629b29426";
        failures = [];
      } );
    ( "rydberg ising-chain n=5",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6bd529c315p-5";
        bound = "0x1.36d0dfdf524fcp-3";
        env_md5 = "0de69ce1c463470ab53cff537a6966e8";
        failures = [];
      } );
    ( "rydberg ising-chain n=5 generic local solver",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.9e6c36cc18a1p-5";
        bound = "0x1.36d129191278cp-3";
        env_md5 = "5caf52d059f0a6f70e2ed7a5509857aa";
        failures = [];
      } );
    ( "rydberg ising-chain n=5 refine=false",
      {
        t_sim = "0x1.999999999999ap-1";
        error_l1 = "0x1.30c92c9545eccp-3";
        bound = "0x1.36d0dfdf524fcp-3";
        env_md5 = "ea67f8f61003d943b42b1455cd85cb54";
        failures = [];
      } );
    ( "rydberg ising-chain n=5 time_opt=false",
      {
        t_sim = "0x1.3333333333334p+1";
        error_l1 = "0x1.9e6bd529c29dbp-5";
        bound = "0x1.36d0dfdf51f64p-3";
        env_md5 = "3cf373b2af424b01291406248584c3a5";
        failures = [];
      } );
    ( "rydberg mis-chain n=5 K=4",
      {
        t_sim = "0x1.99b355b54c1efp-2";
        error_l1 = "0x1.9a807eea54b63p-7";
        bound = "";
        env_md5 = "529ef7194f7a74aee89afb3d59854813";
        failures = [];
      } );
    ( "rydberg mis-chain n=5 K=6",
      {
        t_sim = "0x1.99b355b54c1eep-2";
        error_l1 = "0x1.9a807eea54b83p-7";
        bound = "";
        env_md5 = "f7a6e06f20b7d5b6fa975cd7fb6a80a6";
        failures = [];
      } );
    ( "rydberg mis-chain n=5 K=4 refine=false",
      {
        t_sim = "0x1.99b355b54c1efp-2";
        error_l1 = "0x1.33e05f2fbf883p-5";
        bound = "";
        env_md5 = "b462842269856825be4e193c016b8b1e";
        failures = [];
      } );
    ( "rydberg mis-chain n=5 K=4 generic local solver",
      {
        t_sim = "0x1.99b45beaa1b1cp-2";
        error_l1 = "0x1.9a8188de8f278p-7";
        bound = "";
        env_md5 = "5f793e9c6671aee02de7f7a4cab02338";
        failures = [];
      } );
    ( "iontrap qaoa-chain n=5 K=4",
      {
        t_sim = "0x1.aaaaaaaaaaaabp-2";
        error_l1 = "0x0p+0";
        bound = "";
        env_md5 = "4601208f5a3a79195976b25da2e27e6d";
        failures = [];
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
      } );
  ]

let show o =
  Printf.sprintf
    "{ t_sim = %S; error_l1 = %S; bound = %S; env_md5 = %S; failures = [%s] }"
    o.t_sim o.error_l1 o.bound o.env_md5
    (String.concat "; "
       (List.map
          (fun (c, site, stage, cls, fatal) ->
            Printf.sprintf "(%d, %S, %S, %S, %b)" c site stage cls fatal)
          o.failures))

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
