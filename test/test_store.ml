(* Tests for the persistent plan store: entry format validation (the
   corruption suite), the Compile_plan integration (cold-process reuse,
   fall-back-to-rebuild, self-repair), and bitwise identity of compile
   results with the store on or off at several domain counts. *)

open Qturbo_pauli
open Qturbo_aais
open Qturbo_core
module PS = Qturbo_store.Plan_store

let relaxed_line = { Device.aquila_paper with Device.max_extent = 2000.0 }

let rydberg_for n = Rydberg.build ~spec:relaxed_line ~n

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

(* temp_file reserves a unique name; the store recreates it as a dir *)
let fresh_dir () =
  let f = Filename.temp_file "qturbo-store-test" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

(* ---- Plan_store unit tests: byte-level validation ---- *)

let with_raw_store f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      f (PS.open_store ~version:"test/1" ~dir) dir)

let check_stats msg store ~hits ~misses ~corrupt ~version_mismatch ~writes =
  let s = PS.stats store in
  Alcotest.(check int) (msg ^ ": hits") hits s.PS.hits;
  Alcotest.(check int) (msg ^ ": misses") misses s.PS.misses;
  Alcotest.(check int) (msg ^ ": corrupt") corrupt s.PS.corrupt;
  Alcotest.(check int)
    (msg ^ ": version_mismatch")
    version_mismatch s.PS.version_mismatch;
  Alcotest.(check int) (msg ^ ": writes") writes s.PS.writes

let test_store_roundtrip () =
  with_raw_store @@ fun store _dir ->
  let key = "some structural key\nwith newlines"
  and payload = "opaque \x00 binary \xff payload" in
  Alcotest.(check bool) "save" true (PS.save store ~key ~payload);
  Alcotest.(check (option string)) "load" (Some payload)
    (PS.load store ~key);
  Alcotest.(check (option string)) "other key absent" None
    (PS.load store ~key:"different key");
  check_stats "round-trip" store ~hits:1 ~misses:1 ~corrupt:0
    ~version_mismatch:0 ~writes:1;
  (* a save replaces the prior entry *)
  Alcotest.(check bool) "re-save" true (PS.save store ~key ~payload:"v2");
  Alcotest.(check (option string)) "replaced" (Some "v2")
    (PS.load store ~key)

let test_store_corruption_suite () =
  with_raw_store @@ fun store _dir ->
  let key = "corruption victim" and payload = "payload bytes to protect" in
  let path = PS.entry_path store ~key in
  let plant () = ignore (PS.save store ~key ~payload) in
  let expect_invalid msg =
    match PS.load store ~key with
    | None -> ()
    | Some _ -> Alcotest.failf "%s: load accepted a damaged entry" msg
  in
  (* truncated file *)
  plant ();
  let whole = read_file path in
  write_file path (String.sub whole 0 (String.length whole / 2));
  expect_invalid "truncated";
  (* garbage bytes *)
  write_file path "complete garbage, not even a header";
  expect_invalid "garbage";
  (* one flipped payload byte breaks the checksum *)
  plant ();
  let whole = read_file path in
  let b = Bytes.of_string whole in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
  write_file path (Bytes.to_string b);
  expect_invalid "flipped byte";
  (* an entry written under a different store-format version *)
  plant ();
  let other = PS.open_store ~version:"test/2" ~dir:(PS.dir store) in
  Alcotest.(check (option string)) "version mismatch" None
    (PS.load other ~key);
  check_stats "version mismatch counted" other ~hits:0 ~misses:0 ~corrupt:0
    ~version_mismatch:1 ~writes:0;
  (* the damage was counted, never raised *)
  let s = PS.stats store in
  Alcotest.(check int) "three corrupt loads" 3 s.PS.corrupt;
  (* ... and a fresh save repairs the entry *)
  plant ();
  Alcotest.(check (option string)) "repaired" (Some payload)
    (PS.load store ~key)

let test_store_reclassify () =
  with_raw_store @@ fun store _dir ->
  ignore (PS.save store ~key:"k" ~payload:"p");
  ignore (PS.load store ~key:"k");
  PS.reclassify_corrupt store;
  check_stats "reclassified" store ~hits:0 ~misses:0 ~corrupt:1
    ~version_mismatch:0 ~writes:1

let test_store_unusable_dir () =
  (* a directory that cannot be created: loads miss, saves fail, nothing
     raises *)
  let dir = Filename.concat "/dev/null" "not-a-dir" in
  let store = PS.open_store ~version:"test/1" ~dir in
  Alcotest.(check (option string)) "load misses" None (PS.load store ~key:"k");
  Alcotest.(check bool) "save fails" false
    (PS.save store ~key:"k" ~payload:"p");
  let s = PS.stats store in
  Alcotest.(check int) "write error counted" 1 s.PS.write_errors

(* ---- Compile_plan integration ---- *)

let with_store f =
  let dir = fresh_dir () in
  Compile_plan.clear_caches ();
  Compile_plan.enable_store ~dir;
  Fun.protect
    ~finally:(fun () ->
      Compile_plan.disable_store ();
      Compile_plan.clear_caches ();
      rm_rf dir)
    (fun () -> f dir)

let compile_ising ?(options = Compiler.default_options) ?(n = 5) () =
  let ryd = rydberg_for n in
  Compiler.compile ~options ~aais:ryd.Rydberg.aais
    ~target:(static_target "ising-chain" n)
    ~t_tar:1.0 ()

(* the only entry file in a fresh store dir *)
let sole_entry dir =
  match Sys.readdir dir with
  | [| f |] -> Filename.concat dir f
  | files -> Alcotest.failf "expected one store entry, found %d" (Array.length files)

let test_cold_process_store_hit () =
  with_store @@ fun _dir ->
  let r1 = compile_ising () in
  Alcotest.(check bool) "store enabled" true r1.Compiler.plan.Compiler.store_enabled;
  Alcotest.(check bool) "first compile misses" false
    r1.Compiler.plan.Compiler.store_hit;
  (* a fresh process = empty in-memory caches, same store *)
  Compile_plan.clear_caches ();
  let r2 = compile_ising () in
  Alcotest.(check bool) "second cold compile hits the store" true
    r2.Compiler.plan.Compiler.store_hit;
  check_bits "t_sim" r1.Compiler.t_sim r2.Compiler.t_sim;
  check_bits_arr "env" r1.Compiler.env r2.Compiler.env;
  (* stored plans skip the front-end build *)
  check_bits "no rebuild cost" 0.0 r2.Compiler.plan.Compiler.build_seconds;
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s ->
      Alcotest.(check int) "one write" 1 s.PS.writes;
      Alcotest.(check int) "one hit" 1 s.PS.hits;
      Alcotest.(check int) "one miss" 1 s.PS.misses);
  (* within one process the LRU wins; the store is not re-read *)
  let r3 = compile_ising () in
  Alcotest.(check bool) "warm compile is an LRU hit" true
    r3.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "not a store hit" false r3.Compiler.plan.Compiler.store_hit

let test_corrupt_store_rebuilds () =
  with_store @@ fun dir ->
  let r1 = compile_ising () in
  let entry = sole_entry dir in
  let damage bytes msg =
    Compile_plan.clear_caches ();
    write_file entry bytes;
    let r = compile_ising () in
    Alcotest.(check bool) (msg ^ ": rebuilt, not crashed") false
      r.Compiler.plan.Compiler.store_hit;
    check_bits (msg ^ ": t_sim identical") r1.Compiler.t_sim r.Compiler.t_sim;
    check_bits_arr (msg ^ ": env identical") r1.Compiler.env r.Compiler.env
  in
  let whole = read_file entry in
  damage (String.sub whole 0 (String.length whole / 3)) "truncated";
  damage "not a store entry at all" "garbage";
  (let b = Bytes.of_string (read_file entry) in
   (* the rebuild above re-wrote the entry; flip a payload byte *)
   let last = Bytes.length b - 1 in
   Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
   damage (Bytes.to_string b) "flipped checksum");
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s ->
      Alcotest.(check int) "every damage counted" 3 s.PS.corrupt;
      (* each rebuild repaired the entry *)
      Alcotest.(check int) "repair writes" 4 s.PS.writes);
  (* the final repair is loadable again *)
  Compile_plan.clear_caches ();
  let r = compile_ising () in
  Alcotest.(check bool) "repaired entry hits" true
    r.Compiler.plan.Compiler.store_hit

(* A hand-edited entry with a recomputed checksum whose skeleton CSR
   disagrees with its cell lists: the solve and the error metrics read
   the CSR, so the lint gate must refuse it as a corrupt miss, and the
   rebuild must repair the entry. *)
let test_csr_mismatch_rebuilds () =
  with_store @@ fun dir ->
  let r1 = compile_ising () in
  let plan, _ =
    Compile_plan.obtain ~options:Compiler.default_options
      ~aais:(rydberg_for 5).Rydberg.aais
      ~target:(static_target "ising-chain" 5)
  in
  let key = plan.Compile_plan.key in
  let raw = PS.open_store ~version:(Compile_plan.store_version ()) ~dir in
  let tampered : Compile_plan.t =
    match PS.load raw ~key with
    | Some payload -> Marshal.from_string payload 0
    | None -> Alcotest.fail "the fresh build was not persisted"
  in
  let values =
    Qturbo_linalg.Csr.values
      (Linear_system.skeleton_csr tampered.Compile_plan.skeleton)
  in
  values.(0) <- values.(0) +. 1.0;
  Alcotest.(check bool) "tampered entry written" true
    (PS.save raw ~key
       ~payload:(Marshal.to_string tampered [ Marshal.Closures ]));
  Compile_plan.clear_caches ();
  let r2 = compile_ising () in
  Alcotest.(check bool) "refused, rebuilt" false
    r2.Compiler.plan.Compiler.store_hit;
  check_bits "t_sim identical" r1.Compiler.t_sim r2.Compiler.t_sim;
  check_bits_arr "env identical" r1.Compiler.env r2.Compiler.env;
  check_bits "error identical" r1.Compiler.error_l1 r2.Compiler.error_l1;
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s -> Alcotest.(check int) "counted as corrupt" 1 s.PS.corrupt);
  Compile_plan.clear_caches ();
  let r3 = compile_ising () in
  Alcotest.(check bool) "repaired entry hits" true
    r3.Compiler.plan.Compiler.store_hit

let json = Qturbo_analysis.Diagnostic.list_to_json

(* Rewrite the stored plan for [target] through [edit], as a hand edit
   with a recomputed checksum would. *)
let tamper_entry dir ~aais ~target edit =
  let key =
    Compile_plan.plan_key ~options:Compiler.default_options ~aais ~target
  in
  let raw = PS.open_store ~version:(Compile_plan.store_version ()) ~dir in
  let plan : Compile_plan.t =
    match PS.load raw ~key with
    | Some payload -> Marshal.from_string payload 0
    | None -> Alcotest.fail "the fresh build was not persisted"
  in
  Alcotest.(check bool) "tampered entry written" true
    (PS.save raw ~key
       ~payload:(Marshal.to_string (edit plan) [ Marshal.Closures ]))

let store_hits () =
  match Compile_plan.store_stats () with
  | Some s -> s.PS.hits
  | None -> Alcotest.fail "store stats missing"

(* An entry that drops the plan's structure findings passes every byte
   check and the lint gate, which reads no analyzer result.  A store
   load re-derives the findings from the linted skeleton and device, so
   a check and a compile served from the entry report what the cold
   build did (its QT007 included). *)
let test_dropped_structure_findings_rederived () =
  with_store @@ fun dir ->
  let aais = (rydberg_for 5).Rydberg.aais in
  let target = static_target "ising-chain" 5 in
  let analyze () = json (Compiler.analyze ~aais ~target ~t_tar:1.0 ()) in
  let cold_check = analyze () in
  let cold = compile_ising () in
  Alcotest.(check bool) "the cold plan carries a QT007" true
    (List.exists
       (fun (d : Qturbo_analysis.Diagnostic.t) -> d.code = "QT007")
       cold.Compiler.diagnostics);
  tamper_entry dir ~aais ~target (fun p ->
      { p with Compile_plan.structure_diags = [] });
  Compile_plan.clear_caches ();
  Alcotest.(check string) "check served from the entry" cold_check (analyze ());
  Compile_plan.clear_caches ();
  let r = compile_ising () in
  Alcotest.(check bool) "compile served from the entry" true
    r.Compiler.plan.Compiler.store_hit;
  Alcotest.(check string) "compile diagnostics"
    (json cold.Compiler.diagnostics)
    (json r.Compiler.diagnostics);
  Alcotest.(check int) "both served by the store" 2 (store_hits ())

(* The same for the analyzer's tables and the recorded lint list: an
   entry claiming no channel feeds any row, and a lint error the plan
   does not have, is served with what its own artifacts say. *)
let test_tampered_tables_and_lint_rederived () =
  with_store @@ fun dir ->
  let aais = (rydberg_for 5).Rydberg.aais in
  let target = static_target "ising-chain" 5 in
  let analyze () = json (Compiler.analyze ~aais ~target ~t_tar:1.0 ()) in
  let lint () =
    json
      (Compile_plan.lint_findings
         (fst (Compile_plan.obtain ~options:Compiler.default_options ~aais ~target)))
  in
  let cold_check = analyze () and cold_lint = lint () in
  let fake =
    Qturbo_analysis.Diagnostic.make ~code:"QT023"
      ~severity:Qturbo_analysis.Diagnostic.Error
      ~subject:Qturbo_analysis.Diagnostic.System "planted"
  in
  tamper_entry dir ~aais ~target (fun p ->
      let table = p.Compile_plan.precheck in
      {
        p with
        Compile_plan.precheck =
          {
            table with
            Qturbo_analysis.Analysis.rates =
              Array.map (fun _ -> None) table.Qturbo_analysis.Analysis.rates;
          };
        lint_diags = [ fake ];
      });
  Compile_plan.clear_caches ();
  Alcotest.(check string) "check served from the entry" cold_check (analyze ());
  Alcotest.(check string) "lint served from the entry" cold_lint (lint ());
  Alcotest.(check int) "served by the store" 1 (store_hits ())

let test_version_mismatch_rebuilds () =
  with_store @@ fun dir ->
  let r1 = compile_ising () in
  let entry = sole_entry dir in
  (* rewrite the entry's version line; the payload checksum still holds,
     so only the version gate can reject it *)
  (match String.split_on_char '\n' (read_file entry) with
  | magic :: _version :: rest ->
      write_file entry (String.concat "\n" (magic :: "stale/0" :: rest))
  | _ -> Alcotest.fail "unexpected entry layout");
  Compile_plan.clear_caches ();
  let r2 = compile_ising () in
  Alcotest.(check bool) "rebuilt" false r2.Compiler.plan.Compiler.store_hit;
  check_bits "identical" r1.Compiler.t_sim r2.Compiler.t_sim;
  match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s ->
      Alcotest.(check int) "counted as version mismatch" 1 s.PS.version_mismatch;
      Alcotest.(check int) "not as corruption" 0 s.PS.corrupt

let test_store_bitwise_identical_across_domains () =
  List.iter
    (fun domains ->
      let options = { Compiler.default_options with Compiler.domains } in
      Compile_plan.clear_caches ();
      Compile_plan.disable_store ();
      let off = compile_ising ~options () in
      Alcotest.(check bool)
        (Printf.sprintf "domains %d: store off" domains)
        false off.Compiler.plan.Compiler.store_enabled;
      with_store (fun _dir ->
          let cold = compile_ising ~options () in
          Compile_plan.clear_caches ();
          let stored = compile_ising ~options () in
          Alcotest.(check bool)
            (Printf.sprintf "domains %d: stored run hits" domains)
            true stored.Compiler.plan.Compiler.store_hit;
          List.iter
            (fun (label, (r : Compiler.result)) ->
              let msg =
                Printf.sprintf "domains %d: %s vs store-off" domains label
              in
              check_bits (msg ^ " t_sim") off.Compiler.t_sim r.Compiler.t_sim;
              check_bits_arr (msg ^ " env") off.Compiler.env r.Compiler.env;
              check_bits (msg ^ " error") off.Compiler.error_l1
                r.Compiler.error_l1)
            [ ("cold store", cold); ("store hit", stored) ]))
    [ 1; 4 ]

(* The AAIS's key memo holds a copy of the device rendering; the plan's
   keys already carry it, so the payload must leave the memo out: it is
   smaller than the resident plan's own marshaling by at least the
   rendering. *)
let test_store_payload_leaves_out_key_memo () =
  with_store @@ fun dir ->
  let aais = (rydberg_for 5).Rydberg.aais in
  let plan, _ =
    Compile_plan.obtain ~options:Compiler.default_options ~aais
      ~target:(static_target "ising-chain" 5)
  in
  let rendering = Shape.of_aais aais in
  let payload =
    match
      PS.load
        (PS.open_store ~version:(Compile_plan.store_version ()) ~dir)
        ~key:plan.Compile_plan.key
    with
    | Some p -> p
    | None -> Alcotest.fail "the fresh build was not persisted"
  in
  let resident = Marshal.to_string plan [ Marshal.Closures ] in
  if String.length payload + String.length rendering > String.length resident
  then
    Alcotest.failf "payload %d bytes + rendering %d > resident plan %d bytes"
      (String.length payload) (String.length rendering)
      (String.length resident);
  let loaded : Compile_plan.t = Marshal.from_string payload 0 in
  Alcotest.(check bool) "the loaded device renders the same" true
    (String.equal rendering
       (Shape.of_aais loaded.Compile_plan.device.Compile_plan.aais))

(* A store hit for a device whose variables are bit-identical to the
   stored one's is rebound onto the requester's AAIS: one resident copy
   per device, and the same bits as the cold build, at any pool width. *)
let test_store_hit_rebinds_onto_requester () =
  with_store @@ fun _dir ->
  let cold = compile_ising () in
  Compile_plan.clear_caches ();
  let aais = (rydberg_for 5).Rydberg.aais in
  let target = static_target "ising-chain" 5 in
  let plan, provenance =
    Compile_plan.obtain ~options:Compiler.default_options ~aais ~target
  in
  Alcotest.(check bool) "a store hit" true (provenance = Compile_plan.Stored);
  let d = plan.Compile_plan.device in
  Alcotest.(check bool) "the requester's AAIS" true (d.Compile_plan.aais == aais);
  Alcotest.(check bool) "the requester's channels" true
    (Array.for_all2 ( == ) d.Compile_plan.channels (Aais.channels aais));
  Alcotest.(check bool) "the requester's variables" true
    (Array.for_all2 ( == ) d.Compile_plan.vars (Aais.variables aais));
  let same what (r : Compiler.result) =
    check_bits (what ^ " t_sim") cold.Compiler.t_sim r.Compiler.t_sim;
    check_bits_arr (what ^ " env") cold.Compiler.env r.Compiler.env;
    check_bits (what ^ " error") cold.Compiler.error_l1 r.Compiler.error_l1;
    check_bits (what ^ " bound") cold.Compiler.theorem1_bound
      r.Compiler.theorem1_bound
  in
  same "hit" (Compile_plan.solve ~plan ~coeffs:target ~t_tar:1.0 ());
  (* only the device record was rebound: a fresh process's hit solved
     on a 4-wide pool gives the cold build's bits too *)
  Compile_plan.clear_caches ();
  let options = { Compiler.default_options with Compiler.domains = 4 } in
  let plan, provenance = Compile_plan.obtain ~options ~aais ~target in
  Alcotest.(check bool) "a store hit after clear_caches" true
    (provenance = Compile_plan.Stored);
  same "hit at 4 domains"
    (Compile_plan.solve ~options ~plan ~coeffs:target ~t_tar:1.0 ())

(* On the evenly spaced chain, radii of 1.2 and 1.5 spacings keep
   exactly the nearest-neighbour pairs, so the two devices emit the same
   channels.  The key renders the truncation summary, so they key apart:
   neither the plan cache nor the store serves one's plan to the other,
   and each compile reports its own radius (QT029). *)
let test_radii_keeping_the_same_pairs_key_apart () =
  let options = Compiler.default_options in
  let target = static_target "ising-chain" 5 in
  let spacing =
    let ryd = rydberg_for 5 in
    Rydberg.distance ryd ~env:(Variable.initial_env ryd.Rydberg.aais.Aais.pool) 0 1
  in
  let cut factor =
    (Rydberg.build_cutoff ~cutoff:(Rydberg.Radius (factor *. spacing))
       ~spec:relaxed_line ~n:5)
      .Rydberg.aais
  in
  let compile factor =
    Compiler.compile ~options ~aais:(cut factor) ~target ~t_tar:1.0 ()
  in
  let reports_own_radius what factor (r : Compiler.result) =
    let module D = Qturbo_analysis.Diagnostic in
    Alcotest.(check (list string))
      (what ^ ": QT029 reports its own radius")
      (List.map D.to_string
         (Qturbo_analysis.Truncation.check ~aais:(cut factor) ~t_tar:1.0))
      (List.filter_map
         (fun (d : D.t) ->
           if d.D.code = "QT029" then Some (D.to_string d) else None)
         r.Compiler.diagnostics)
  in
  with_store @@ fun _dir ->
  reports_own_radius "cold 1.2" 1.2 (compile 1.2);
  let warm = compile 1.5 in
  reports_own_radius "warm 1.5" 1.5 warm;
  Alcotest.(check bool) "warm: no cache hit" false
    warm.Compiler.plan.Compiler.cache_hit;
  Alcotest.(check bool) "keys differ" false
    (String.equal
       (Compile_plan.plan_key ~options ~aais:(cut 1.2) ~target)
       (Compile_plan.plan_key ~options ~aais:(cut 1.5) ~target));
  (* a fresh process on a store that holds both plans *)
  Compile_plan.clear_caches ();
  let stored = compile 1.5 in
  Alcotest.(check bool) "a store hit" true
    stored.Compiler.plan.Compiler.store_hit;
  reports_own_radius "stored 1.5" 1.5 stored

let () =
  Alcotest.run "store"
    [
      ( "plan_store",
        [
          Alcotest.test_case "save/load round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "corruption suite" `Quick
            test_store_corruption_suite;
          Alcotest.test_case "reclassify corrupt" `Quick test_store_reclassify;
          Alcotest.test_case "unusable directory" `Quick
            test_store_unusable_dir;
        ] );
      ( "compile_plan",
        [
          Alcotest.test_case "cold-process store hit" `Quick
            test_cold_process_store_hit;
          Alcotest.test_case "corrupt entries rebuild" `Quick
            test_corrupt_store_rebuilds;
          Alcotest.test_case "version mismatch rebuilds" `Quick
            test_version_mismatch_rebuilds;
          Alcotest.test_case "CSR disagreeing with its cells rebuilds" `Quick
            test_csr_mismatch_rebuilds;
          Alcotest.test_case "bitwise identical on/off, domains 1 and 4"
            `Quick test_store_bitwise_identical_across_domains;
          Alcotest.test_case "payload leaves out the key memo" `Quick
            test_store_payload_leaves_out_key_memo;
          Alcotest.test_case "a store hit rebinds onto an identical device"
            `Quick test_store_hit_rebinds_onto_requester;
          Alcotest.test_case "radii keeping the same pairs key apart"
            `Quick test_radii_keeping_the_same_pairs_key_apart;
          Alcotest.test_case "dropped structure findings are re-derived"
            `Quick test_dropped_structure_findings_rederived;
          Alcotest.test_case "tampered tables and lint list are re-derived"
            `Quick test_tampered_tables_and_lint_rederived;
        ] );
    ]
