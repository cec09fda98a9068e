(* Tests for the compile service: strict request parsing, the
   socket-free request handler (response shapes, typed errors, warm
   plan-cache reuse, CLI parity), and end-to-end daemon round-trips
   over a real Unix-domain socket, the read deadline included. *)

module J = Qturbo_util.Json
module Protocol = Qturbo_service.Protocol
module Server = Qturbo_service.Server
module Ops = Qturbo_service.Ops
module Client = Qturbo_service.Client
module Backend = Qturbo_backend.Backend
module Aais = Qturbo_aais.Aais
module Shape = Qturbo_aais.Shape
module Variable = Qturbo_aais.Variable
module Compile_plan = Qturbo_core.Compile_plan

let parse_ok line =
  match Protocol.parse_line line with
  | Ok req -> req
  | Error msg -> Alcotest.failf "%s did not parse: %s" line msg

let parse_err line =
  match Protocol.parse_line line with
  | Ok req ->
      Alcotest.failf "%s parsed as %s, expected an error" line
        (Protocol.op_name req)
  | Error msg -> msg

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains msg ~needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: %S not in %s" msg needle hay

(* ---- protocol ---- *)

let test_protocol_parse () =
  (match parse_ok {|{"op":"ping"}|} with
  | Protocol.Ping -> ()
  | req -> Alcotest.failf "expected ping, got %s" (Protocol.op_name req));
  (match parse_ok {|{"op":"compile","model":"ising-chain"}|} with
  | Protocol.Compile c ->
      (* documented defaults *)
      Alcotest.(check int) "default n" 5 c.Protocol.job.Protocol.n;
      Alcotest.(check string) "default backend" "rydberg"
        c.Protocol.job.Protocol.backend;
      Alcotest.(check bool) "default best_effort" false
        c.Protocol.best_effort
  | req -> Alcotest.failf "expected compile, got %s" (Protocol.op_name req));
  (match
     parse_ok
       {|{"op":"sweep","model":"ising-chain","n":4,"sweep_j":"0.1:0.3:3","best_effort":true}|}
   with
  | Protocol.Sweep s ->
      Alcotest.(check string) "sweep_j" "0.1:0.3:3" s.Protocol.sweep_j;
      Alcotest.(check bool) "best_effort" true s.Protocol.sweep_best_effort
  | req -> Alcotest.failf "expected sweep, got %s" (Protocol.op_name req))

let test_protocol_strict () =
  (* unknown op *)
  check_contains "unknown op" ~needle:"unknown op"
    (parse_err {|{"op":"frobnicate"}|});
  (* a typo'd field is an error, not a silently applied default *)
  check_contains "unknown field" ~needle:"t_targ"
    (parse_err {|{"op":"compile","model":"ising-chain","t_targ":2.0}|});
  (* ping accepts nothing but op *)
  check_contains "ping is closed" ~needle:"unknown field"
    (parse_err {|{"op":"ping","extra":1}|});
  (* type errors *)
  check_contains "n must be a number" ~needle:"\"n\""
    (parse_err {|{"op":"compile","model":"ising-chain","n":"five"}|});
  check_contains "n must be integral" ~needle:"integer"
    (parse_err {|{"op":"compile","model":"ising-chain","n":2.5}|});
  (* shape errors *)
  check_contains "needs op" ~needle:"op" (parse_err {|{"model":"x"}|});
  check_contains "object only" ~needle:"object" (parse_err {|[1,2]|});
  check_contains "invalid JSON" ~needle:"invalid JSON" (parse_err "{nope")

(* ---- the socket-free handler ---- *)

let handle line = Server.handle_request ~requests:1 ~started:0.0 line

let response_fields resp =
  match J.parse_exn resp with
  | J.Object fields -> fields
  | _ -> Alcotest.failf "response is not an object: %s" resp

let response_result resp =
  let fields = response_fields resp in
  match (List.assoc_opt "ok" fields, List.assoc_opt "result" fields) with
  | Some (J.Bool true), Some v -> v
  | _ -> Alcotest.failf "expected an ok response, got %s" resp

let response_error resp =
  let fields = response_fields resp in
  match (List.assoc_opt "ok" fields, List.assoc_opt "error" fields) with
  | Some (J.Bool false), Some (J.Object err) -> (
      match List.assoc_opt "kind" err with
      | Some (J.String kind) -> (kind, err)
      | _ -> Alcotest.failf "error without kind: %s" resp)
  | _ -> Alcotest.failf "expected an error response, got %s" resp

let test_handler_basics () =
  let resp, keep = handle {|{"op":"ping"}|} in
  Alcotest.(check string) "ping" {|{"ok":true,"result":"pong"}|} resp;
  Alcotest.(check bool) "ping keeps serving" true keep;
  let _, keep = handle {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown stops" false keep;
  let resp, keep = handle "definitely not json" in
  let kind, _ = response_error resp in
  Alcotest.(check string) "malformed is a parse error" "parse" kind;
  Alcotest.(check bool) "parse errors keep serving" true keep;
  (* the depth bomb gets a clean parse error, not a crash *)
  let resp, _ = handle (String.make 10_000 '[') in
  let kind, _ = response_error resp in
  Alcotest.(check string) "depth bomb" "parse" kind;
  (* stats is well-formed *)
  let resp, _ = handle {|{"op":"stats"}|} in
  match response_result resp with
  | J.Object fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "stats lacks %S: %s" k resp)
        [ "requests"; "uptime_seconds"; "plan_cache"; "plan_store" ]
  | _ -> Alcotest.fail "stats result is not an object"

let member path v =
  List.fold_left
    (fun v k ->
      match v with
      | J.Object fields -> (
          match List.assoc_opt k fields with
          | Some v -> v
          | None -> Alcotest.failf "missing field %s" k)
      | _ -> Alcotest.failf "not an object at %s" k)
    v path

let test_handler_compile_and_warm_cache () =
  Qturbo_core.Compile_plan.clear_caches ();
  let req = {|{"op":"compile","model":"ising-chain","n":5}|} in
  let resp1, _ = handle req in
  let r1 = response_result resp1 in
  (match member [ "plan_cache"; "hit" ] r1 with
  | J.Bool false -> ()
  | _ -> Alcotest.fail "first compile should build its plan");
  let resp2, _ = handle req in
  let r2 = response_result resp2 in
  (match member [ "plan_cache"; "hit" ] r2 with
  | J.Bool true -> ()
  | _ -> Alcotest.fail "second compile should reuse the warm plan");
  (* numbers agree across the warm hit *)
  let error_l1 v =
    match member [ "error_l1" ] v with
    | J.Number f -> f
    | _ -> Alcotest.fail "error_l1 missing"
  in
  Alcotest.(check bool) "error_l1 identical" true
    (Int64.equal
       (Int64.bits_of_float (error_l1 r1))
       (Int64.bits_of_float (error_l1 r2)))

let test_handler_typed_errors () =
  let kind_of line = fst (response_error (fst (handle line))) in
  Alcotest.(check string) "unknown model is a user error" "user"
    (kind_of {|{"op":"compile","model":"not-a-model"}|});
  Alcotest.(check string) "driven model rejected" "user"
    (kind_of {|{"op":"compile","model":"mis-chain"}|});
  (* an analyzer rejection (uncoverable target) carries its diagnostics *)
  let resp, _ = handle {|{"op":"compile","hamiltonian":"1.0*Y0 Y1"}|} in
  let kind, err = response_error resp in
  Alcotest.(check string) "rejected" "rejected" kind;
  (match List.assoc_opt "diagnostics" err with
  | Some (J.Object _) -> ()
  | _ -> Alcotest.failf "rejection without diagnostics: %s" resp);
  (* requests after an error still work: the daemon survives *)
  let resp, keep = handle {|{"op":"ping"}|} in
  Alcotest.(check string) "still alive" {|{"ok":true,"result":"pong"}|} resp;
  Alcotest.(check bool) "keep" true keep

(* A daemon compile response's result matches the payload the CLI's
   --json path builds for the same job (both call Ops) — modulo the
   plan_cache object, which carries wall-clock timings. *)
let drop_plan_cache = function
  | J.Object fields ->
      J.Object (List.filter (fun (k, _) -> k <> "plan_cache") fields)
  | v -> v

let test_handler_cli_parity () =
  Qturbo_core.Compile_plan.clear_caches ();
  let resp, _ = handle {|{"op":"compile","model":"ising-chain","n":5}|} in
  Qturbo_core.Compile_plan.clear_caches ();
  let model =
    Ops.resolve_model ~hamiltonian:None ~model_name:(Some "ising-chain") ~n:5
      ~j:0.0 ~h:0.0
  in
  let inst =
    Ops.resolve_backend ~backend:"rydberg" ~device:None ~cutoff:None
      ~ramp:false ~model_name:model.Qturbo_models.Model.name
      ~n:model.Qturbo_models.Model.n
  in
  let direct =
    Ops.compile_report_json ~options:Qturbo_core.Compiler.default_options
      ~inst
      ~target:(Ops.static_target model)
      ~t_tar:1.0 ~show_pulse:false ~ramp:false ()
  in
  Alcotest.(check string) "daemon result = CLI --json payload"
    (J.emit (drop_plan_cache (J.parse_exn direct)))
    (J.emit (drop_plan_cache (response_result resp)));
  (* a truncated sweep: [qturbo sweep --cutoff 10] resolves its device
     with the cutoff, as the daemon's sweep does, and prints this *)
  Qturbo_core.Compile_plan.clear_caches ();
  let resp, _ =
    handle
      {|{"op":"sweep","model":"ising-chain","n":5,"cutoff":"10","sweep_j":"0.5:1.5:2"}|}
  in
  Qturbo_core.Compile_plan.clear_caches ();
  let model_of ~j ~h =
    Ops.resolve_model ~hamiltonian:None ~model_name:(Some "ising-chain") ~n:5
      ~j ~h
  in
  let inst =
    Ops.resolve_backend ~backend:"rydberg" ~device:None ~cutoff:(Some "10")
      ~ramp:false ~model_name:model.Qturbo_models.Model.name
      ~n:model.Qturbo_models.Model.n
  in
  let options =
    Ops.options_with ~domains:0 ~best_effort:false ~deadline:0.0
      ~no_plan_cache:false
  in
  let range = Ops.parse_range ~what:"sweep" in
  let jobs =
    List.concat_map
      (fun j ->
        List.concat_map
          (fun h -> List.map (fun t -> (j, h, t)) (range "1.0"))
          (range "0"))
      (range "0.5:1.5:2")
  in
  let direct =
    Ops.sweep_static_json ~options
      ~batch_domains:options.Qturbo_core.Compiler.domains ~backend:"rydberg"
      ~inst ~probe:(model_of ~j:0.0 ~h:0.0)
      ~target_of:(fun ~j ~h -> Ops.static_target (model_of ~j ~h))
      ~jobs ()
  in
  let rec drop_plan_caches = function
    | J.Object fields ->
        J.Object
          (List.filter_map
             (fun (k, v) ->
               if k = "plan_cache" then None else Some (k, drop_plan_caches v))
             fields)
    | J.Array items -> J.Array (List.map drop_plan_caches items)
    | v -> v
  in
  let daemon = J.emit (drop_plan_caches (response_result resp)) in
  Alcotest.(check string) "daemon sweep with a cutoff = CLI sweep --cutoff"
    (J.emit (drop_plan_caches (J.parse_exn direct)))
    daemon;
  let untruncated, _ =
    handle {|{"op":"sweep","model":"ising-chain","n":5,"sweep_j":"0.5:1.5:2"}|}
  in
  Alcotest.(check bool) "the cutoff changes the sweep" false
    (String.equal daemon
       (J.emit (drop_plan_caches (response_result untruncated))))

(* ---- backend instances shared across requests ---- *)

let resolve ~backend ~model ~n =
  Ops.resolve_backend ~backend ~device:None ~cutoff:None ~ramp:false
    ~model_name:model ~n

let test_instance_reuse () =
  Compile_plan.clear_caches ();
  let first = resolve ~backend:"rydberg" ~model:"ising-chain" ~n:5 in
  Alcotest.(check bool) "a repeat resolution returns the same instance" true
    (first == resolve ~backend:"rydberg" ~model:"ising-chain" ~n:5);
  Alcotest.(check bool) "another size gets its own" false
    (first == resolve ~backend:"rydberg" ~model:"ising-chain" ~n:6);
  (* an undeclared flag is rejected on every request, cached device or not *)
  ignore (resolve ~backend:"heisenberg" ~model:"ising-chain" ~n:5);
  for _ = 1 to 2 do
    match
      Ops.resolve_backend ~backend:"heisenberg" ~device:None
        ~cutoff:(Some "10") ~ramp:false ~model_name:"ising-chain" ~n:5
    with
    | _ -> Alcotest.fail "--cutoff accepted on heisenberg"
    | exception Failure _ -> ()
  done;
  (* a fresh process (and perfbench's oneshot) builds anew *)
  Compile_plan.clear_caches ();
  Alcotest.(check bool) "clear_caches drops the instance" false
    (first == resolve ~backend:"rydberg" ~model:"ising-chain" ~n:5)

let int_at path v =
  match member path v with
  | J.Number f -> int_of_float f
  | _ -> Alcotest.failf "%s is not a number" (String.concat "." path)

let test_stats_reports_instances () =
  Compile_plan.clear_caches ();
  let req = {|{"op":"compile","model":"ising-chain","n":5}|} in
  ignore (response_result (fst (handle req)));
  ignore (response_result (fst (handle req)));
  let stats = response_result (fst (handle {|{"op":"stats"}|})) in
  Alcotest.(check bool) "hits >= 1" true (int_at [ "instances"; "hits" ] stats >= 1);
  Alcotest.(check int) "one miss" 1 (int_at [ "instances"; "misses" ] stats);
  Alcotest.(check int) "no eviction" 0 (int_at [ "instances"; "evictions" ] stats);
  Alcotest.(check int) "one resident" 1 (int_at [ "instances"; "size" ] stats);
  (* a smaller cache would thrash on a mix of 12 devices *)
  Alcotest.(check bool) "capacity" true
    (int_at [ "instances"; "capacity" ] stats >= 12);
  (* the cache shows in stats only: a compile payload is the CLI's *)
  let compiled = response_result (fst (handle req)) in
  match compiled with
  | J.Object fields ->
      Alcotest.(check bool) "no instances in a compile payload" false
        (List.mem_assoc "instances" fields)
  | _ -> Alcotest.fail "compile result is not an object"

let backends = [ "rydberg"; "heisenberg"; "iontrap" ]

let job_fields ~backend ~model =
  Printf.sprintf {|"model":%s,"n":4,"backend":%s|} (J.quote model)
    (J.quote backend)

let test_repeat_compile_identical () =
  List.iter
    (fun backend ->
      Compile_plan.clear_caches ();
      let req =
        Printf.sprintf {|{"op":"compile",%s,"show_pulse":true}|}
          (job_fields ~backend ~model:"ising-chain")
      in
      let payload () = J.emit (drop_plan_cache (response_result (fst (handle req)))) in
      let cold = payload () in
      Alcotest.(check string) (backend ^ ": warm = cold") cold (payload ()))
    backends

(* ROADMAP direction 2's guard: a shared instance must come out of every
   request kind exactly as it went in. *)
let test_requests_leave_instances_unchanged () =
  let guard ~backend ~model lines =
    Compile_plan.clear_caches ();
    let inst = resolve ~backend ~model ~n:4 in
    let aais = inst.Backend.aais in
    let count = Variable.count aais.Aais.pool and digest = Shape.digest aais in
    List.iter
      (fun line ->
        let resp, _ = handle (Printf.sprintf line (job_fields ~backend ~model)) in
        ignore (response_result resp))
      lines;
    let msg what = Printf.sprintf "%s %s: %s" backend model what in
    Alcotest.(check bool) (msg "still the cached instance") true
      (inst == resolve ~backend ~model ~n:4);
    Alcotest.(check int) (msg "variable count") count
      (Variable.count aais.Aais.pool);
    Alcotest.(check string) (msg "digest") (Digest.to_hex digest)
      (Digest.to_hex (Shape.digest aais))
  in
  List.iter
    (fun backend ->
      guard ~backend ~model:"ising-chain"
        [
          {|{"op":"compile",%s}|};
          {|{"op":"check",%s}|};
          {|{"op":"lint",%s}|};
          {|{"op":"sweep",%s,"sweep_j":"0.5:1.0:2"}|};
        ];
      (* best-effort: on the Rydberg device the two-segment layout
         breaks its constraints, which a strict sweep refuses *)
      guard ~backend ~model:"qaoa-chain"
        [
          {|{"op":"sweep",%s,"sweep_segments":"2","sweep_t":"1.0",|}
          ^^ {|"best_effort":true}|};
        ])
    backends

(* ---- check and lint read the obtained plan ---- *)

let fresh_dir () =
  let dir = Filename.temp_file "qturbo-serve-store" "" in
  Sys.remove dir;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* The check and lint payloads do not depend on where the plan came
   from: a fresh build, the in-memory LRU or the on-disk store.  The
   check payload also equals the reference analyzer's (a channel scan
   plus a fresh build's structure findings). *)
let test_payloads_across_plan_sources () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Compile_plan.disable_store ();
      Compile_plan.clear_caches ();
      rm_rf dir)
    (fun () ->
      List.iter
        (fun backend ->
          let model = "ising-chain" and n = 5 in
          let inst = resolve ~backend ~model ~n in
          let aais = inst.Backend.aais in
          let target =
            Ops.static_target
              (Qturbo_models.Benchmarks.by_name ~name:model ~n)
          in
          let check () =
            Ops.check_report_json ~inst ~aais ~target ~t_tar:1.0 ()
          in
          let lint () =
            Ops.lint_report_json ~model_label:model ~backend ~inst ~target ()
          in
          let reference =
            Qturbo_analysis.Diagnostic.list_to_json
              (inst.Backend.spec_diagnostics
              @ Qturbo_analysis.Analysis.static_checks
                  ~t_max:inst.Backend.max_time ~aais ~target ~t_tar:1.0 ()
              @ (Compile_plan.build ~aais
                   ~target_shape:(Compile_plan.support_of_target target)
                   ())
                  .Compile_plan.structure_diags)
          in
          Alcotest.(check string) (backend ^ ": check = reference") reference
            (check ());
          List.iter
            (fun (what, payload) ->
              (* each source in turn: an empty store and cache, then the
                 LRU, then the store alone *)
              rm_rf dir;
              Compile_plan.clear_caches ();
              Compile_plan.enable_store ~dir;
              let stages = ref [] in
              let old = !Compile_plan.stage_hook in
              Compile_plan.stage_hook := (fun st -> stages := st :: !stages);
              let built, cached, stored =
                Fun.protect
                  ~finally:(fun () -> Compile_plan.stage_hook := old)
                  (fun () ->
                    let built = payload () in
                    let cached = payload () in
                    Compile_plan.clear_caches ();
                    let stored = payload () in
                    (built, cached, stored))
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s: one build, one LRU hit, one store hit"
                   backend what)
                [ "plan-build"; "plan-cache-hit"; "plan-store-hit" ]
                (List.filter
                   (fun st -> String.length st > 5 && String.sub st 0 5 = "plan-")
                   (List.rev !stages));
              let label src = Printf.sprintf "%s %s: %s = built" backend what src in
              Alcotest.(check string) (label "cached") built cached;
              Alcotest.(check string) (label "stored") built stored)
            [ ("check", check); ("lint", lint) ])
        backends)

(* ---- end-to-end over a real socket ---- *)

let test_socket_end_to_end () =
  let socket_path = Filename.temp_file "qturbo-serve-test" ".sock" in
  Sys.remove socket_path;
  let config =
    { (Server.default_config ~socket_path) with Server.max_requests = Some 8 }
  in
  let daemon = Thread.create Server.serve config in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Fun.protect
    ~finally:(fun () ->
      (* belt and braces: the daemon removes it on clean shutdown *)
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      let request line =
        match Client.request ~socket_path line with
        | Ok resp -> resp
        | Error msg -> Alcotest.failf "client error: %s" msg
      in
      Alcotest.(check string) "ping" {|{"ok":true,"result":"pong"}|}
        (request {|{"op":"ping"}|});
      let resp = request {|{"op":"check","model":"ising-chain","n":4}|} in
      Alcotest.(check bool) "check ok" true (Client.response_ok resp);
      let resp = request {|{"op":"compile","model":"bogus"}|} in
      Alcotest.(check bool) "error response" false (Client.response_ok resp);
      check_contains "user error over the wire" ~needle:{|"kind":"user"|} resp;
      Alcotest.(check string) "shutdown" {|{"ok":true,"result":"shutting down"}|}
        (request {|{"op":"shutdown"}|});
      Thread.join daemon;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path);
      match Client.request ~socket_path {|{"op":"ping"}|} with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "daemon still answering after shutdown")

(* A client that connects and sends nothing holds the daemon's only
   serving slot until the read deadline drops it.  The second client
   bounds its own wait, so a daemon without the deadline fails this
   test instead of hanging it. *)
let test_silent_client_dropped () =
  let socket_path = Filename.temp_file "qturbo-serve-test" ".sock" in
  Sys.remove socket_path;
  let config =
    {
      (Server.default_config ~socket_path) with
      Server.max_requests = Some 8;
      read_timeout = 0.2;
    }
  in
  let daemon = Thread.create Server.serve config in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  let silent = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close silent with Unix.Unix_error _ -> ());
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      Unix.connect silent (Unix.ADDR_UNIX socket_path);
      let started = Unix.gettimeofday () in
      let pinger = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let answer =
        Fun.protect
          ~finally:(fun () -> try Unix.close pinger with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect pinger (Unix.ADDR_UNIX socket_path);
            Unix.setsockopt_float pinger Unix.SO_RCVTIMEO 2.0;
            let oc = Unix.out_channel_of_descr pinger in
            output_string oc "{\"op\":\"ping\"}\n";
            flush oc;
            match input_line (Unix.in_channel_of_descr pinger) with
            | line -> Some line
            | exception (Sys_blocked_io | Sys_error _ | End_of_file) -> None)
      in
      let waited = Unix.gettimeofday () -. started in
      (match answer with
      | Some line ->
          Alcotest.(check string) "ping behind a silent client"
            {|{"ok":true,"result":"pong"}|} line
      | None -> Alcotest.fail "ping not answered within 2 s behind a silent client");
      if waited >= 2.0 then Alcotest.failf "ping took %.2f s" waited;
      (match Client.request ~socket_path {|{"op":"stats"}|} with
      | Ok resp ->
          (* the ping and this stats request; the dropped client is not
             counted *)
          check_contains "requests counted" ~needle:{|"requests":2,|} resp
      | Error msg -> Alcotest.failf "stats: %s" msg);
      (match Client.request ~socket_path {|{"op":"shutdown"}|} with
      | Ok resp ->
          Alcotest.(check string) "shutdown"
            {|{"ok":true,"result":"shutting down"}|} resp
      | Error msg -> Alcotest.failf "shutdown: %s" msg);
      Thread.join daemon;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path))

(* ---- slow clients ---- *)

let start_daemon ?(read_timeout = 0.3) () =
  let socket_path = Filename.temp_file "qturbo-serve-test" ".sock" in
  Sys.remove socket_path;
  let config =
    {
      (Server.default_config ~socket_path) with
      Server.max_requests = Some 10_000;
      read_timeout;
    }
  in
  let daemon = Thread.create Server.serve config in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket_path)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  (socket_path, daemon)

(* A ping on a fresh connection, waiting at most [wait] seconds for the
   answer, so a stalled daemon fails the test instead of hanging it. *)
let ping_within ~socket_path ~wait =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO wait;
      let line = "{\"op\":\"ping\"}\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      match input_line (Unix.in_channel_of_descr fd) with
      | line -> Some line
      | exception (Sys_blocked_io | Sys_error _ | End_of_file) -> None)

let shutdown_daemon ~socket_path daemon =
  (match Client.request ~socket_path {|{"op":"shutdown"}|} with
  | Ok resp ->
      Alcotest.(check string) "shutdown" {|{"ok":true,"result":"shutting down"}|}
        resp
  | Error msg -> Alcotest.failf "shutdown: %s" msg);
  Thread.join daemon;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket_path)

(* A client that trickles one byte per 0.05 s never lets a per-read
   deadline fire; the whole request line must arrive within 0.3 s. *)
let test_trickling_client_dropped () =
  let socket_path, daemon = start_daemon () in
  let trickler = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close trickler with Unix.Unix_error _ -> ());
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      Unix.connect trickler (Unix.ADDR_UNIX socket_path);
      let started = Unix.gettimeofday () in
      let dropped_after = ref None in
      let trickle =
        Thread.create
          (fun () ->
            (* no newline ever; give up after 3 s *)
            let rec go () =
              if Unix.gettimeofday () -. started < 3.0 then
                match Unix.write_substring trickler " " 0 1 with
                | _ ->
                    Thread.delay 0.05;
                    go ()
                | exception Unix.Unix_error _ ->
                    dropped_after := Some (Unix.gettimeofday () -. started)
            in
            go ())
          ()
      in
      Thread.delay 0.1;
      let asked = Unix.gettimeofday () in
      let answer = ping_within ~socket_path ~wait:2.0 in
      let waited = Unix.gettimeofday () -. asked in
      Thread.join trickle;
      (match !dropped_after with
      | Some t when t <= 1.0 -> ()
      | Some t -> Alcotest.failf "the trickling client was dropped after %.2f s" t
      | None -> Alcotest.fail "the trickling client was never dropped");
      (match answer with
      | Some line ->
          Alcotest.(check string) "ping behind a trickling client"
            {|{"ok":true,"result":"pong"}|} line
      | None -> Alcotest.fail "ping not answered within 2 s");
      if waited >= 2.0 then Alcotest.failf "ping took %.2f s" waited;
      shutdown_daemon ~socket_path daemon)

(* A client that pipelines compiles whose pulses outgrow the socket
   buffer and never reads: the write deadline drops it, and the daemon
   serves the next client.  Each iontrap ising-chain n=40 pulse response
   is about 98 KB, so a few of them fill the buffer, and the trap AAIS
   has no runtime-fixed variables, so a compile costs the same under any
   QTURBO_FAULTS: the ping waits for a few compiles, not for the dozens
   of small responses a Rydberg pulse would need. *)
let test_non_reading_client_dropped () =
  let socket_path, daemon = start_daemon () in
  let hog = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close hog with Unix.Unix_error _ -> ());
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () ->
      Unix.connect hog (Unix.ADDR_UNIX socket_path);
      let count = 64 in
      let lines =
        String.concat ""
          (List.init count (fun _ ->
               {|{"op":"compile","backend":"iontrap","model":"ising-chain","n":40,"show_pulse":true}|}
               ^ "\n"))
      in
      ignore (Unix.write_substring hog lines 0 (String.length lines));
      let answer = ping_within ~socket_path ~wait:5.0 in
      (match answer with
      | Some line ->
          Alcotest.(check string) "ping behind a non-reading client"
            {|{"ok":true,"result":"pong"}|} line
      | None -> Alcotest.fail "ping not answered within 5 s");
      (* what the daemon wrote before it gave up, then end of stream:
         fewer responses than requests *)
      Unix.setsockopt_float hog Unix.SO_RCVTIMEO 5.0;
      let buf = Bytes.create 65536 and newlines = ref 0 in
      let rec drain () =
        match Unix.read hog buf 0 (Bytes.length buf) with
        | 0 -> ()
        | k ->
            Bytes.iteri
              (fun i c -> if i < k && c = '\n' then incr newlines)
              buf;
            drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
            Alcotest.fail "the non-reading client's connection is still open"
      in
      drain ();
      if !newlines >= count then
        Alcotest.failf "all %d responses were written" count;
      shutdown_daemon ~socket_path daemon)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests parse" `Quick test_protocol_parse;
          Alcotest.test_case "strict fields" `Quick test_protocol_strict;
        ] );
      ( "handler",
        [
          Alcotest.test_case "basics" `Quick test_handler_basics;
          Alcotest.test_case "compile + warm cache" `Quick
            test_handler_compile_and_warm_cache;
          Alcotest.test_case "typed errors" `Quick test_handler_typed_errors;
          Alcotest.test_case "CLI --json parity" `Quick
            test_handler_cli_parity;
        ] );
      ( "instances",
        [
          Alcotest.test_case "reused until clear_caches" `Quick
            test_instance_reuse;
          Alcotest.test_case "stats reports the cache" `Quick
            test_stats_reports_instances;
          Alcotest.test_case "repeat compiles byte-identical" `Quick
            test_repeat_compile_identical;
          Alcotest.test_case "requests leave instances unchanged" `Quick
            test_requests_leave_instances_unchanged;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "silent client dropped at the read deadline"
            `Quick test_silent_client_dropped;
          Alcotest.test_case "trickling client dropped at the request deadline"
            `Quick test_trickling_client_dropped;
          Alcotest.test_case "non-reading client dropped at the write deadline"
            `Quick test_non_reading_client_dropped;
        ] );
      ( "plans",
        [
          Alcotest.test_case "check and lint payloads: built = cached = stored"
            `Quick test_payloads_across_plan_sources;
        ] );
    ]
