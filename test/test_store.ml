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

let json = Qturbo_analysis.Diagnostic.list_to_json

(* An entry is the plan's support and skeleton. *)
type payload = Pauli_string.t list * Linear_system.skeleton

(* Rewrite the stored entry for [target] through [edit], as a hand edit
   with a recomputed checksum would.  The decoded payload is a private
   copy, so [edit] may damage it in place. *)
let tamper_entry dir ~aais ~target (edit : payload -> payload) =
  let key =
    Compile_plan.plan_key ~options:Compiler.default_options ~aais ~target
  in
  let raw = PS.open_store ~version:(Compile_plan.store_version ()) ~dir in
  let payload : payload =
    match PS.load raw ~key with
    | Some payload -> Marshal.from_string payload 0
    | None -> Alcotest.fail "the fresh build was not persisted"
  in
  Alcotest.(check bool) "tampered entry written" true
    (PS.save raw ~key ~payload:(Marshal.to_string (edit payload) []))

(* An entry that passes every byte check but is not what the request
   would build: the fetch refuses it as a corrupt miss, and the rebuild
   gives the cold build's bits and repairs the entry. *)
let tampered_entry_rebuilds edit () =
  with_store @@ fun dir ->
  let aais = (rydberg_for 5).Rydberg.aais in
  let target = static_target "ising-chain" 5 in
  let cold = compile_ising () in
  tamper_entry dir ~aais ~target edit;
  Compile_plan.clear_caches ();
  let r = compile_ising () in
  Alcotest.(check bool) "refused, rebuilt" false
    r.Compiler.plan.Compiler.store_hit;
  check_bits "t_sim identical" cold.Compiler.t_sim r.Compiler.t_sim;
  check_bits_arr "env identical" cold.Compiler.env r.Compiler.env;
  check_bits "error identical" cold.Compiler.error_l1 r.Compiler.error_l1;
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s -> Alcotest.(check int) "counted as corrupt" 1 s.PS.corrupt);
  Compile_plan.clear_caches ();
  let r = compile_ising () in
  Alcotest.(check bool) "repaired entry hits" true
    r.Compiler.plan.Compiler.store_hit

(* A skeleton CSR that disagrees with its cell lists: the solve and the
   error metrics read the CSR, so the lint gate refuses it. *)
let test_csr_mismatch_rebuilds =
  tampered_entry_rebuilds (fun ((_, skeleton) as payload) ->
      let values =
        Qturbo_linalg.Csr.values (Linear_system.skeleton_csr skeleton)
      in
      values.(0) <- values.(0) +. 1.0;
      payload)

(* One cell coefficient doubled in the cell lists and in the CSR alike:
   the lint gate sees a consistent skeleton, and only the check against
   the requester's channels finds a row they do not produce. *)
let test_doubled_cell_rebuilds =
  tampered_entry_rebuilds (fun ((_, skeleton) as payload) ->
      let cells = Linear_system.skeleton_cells skeleton in
      let csr = Linear_system.skeleton_csr skeleton in
      let row =
        Option.get
          (List.find_opt
             (fun i -> cells.(i) <> [])
             (List.init (Array.length cells) Fun.id))
      in
      let cid, v = List.hd cells.(row) in
      cells.(row) <- (cid, 2.0 *. v) :: List.tl cells.(row);
      let values = Qturbo_linalg.Csr.values csr in
      let k = (Qturbo_linalg.Csr.row_ptr csr).(row) in
      values.(k) <- 2.0 *. values.(k);
      Alcotest.(check bool) "the CSR still packs the cells" true
        (Qturbo_linalg.Csr.packs csr ~cols:(Qturbo_linalg.Csr.cols csr)
           cells);
      payload)

(* The term index's lookup table taken from an index over a reordered
   support, so an X term and a ZZ term look up each other's rows while
   the row list still reads in order.  The lint gate reads only the row
   list.  The index is abstract, so the edit replaces its lookup-table
   field (the first) as a hand-edited payload would. *)
let test_swapped_lookup_rebuilds =
  tampered_entry_rebuilds (fun ((support, skeleton) as payload) ->
      let ops s = List.map snd (Pauli_string.to_list s) in
      let x = List.find (fun s -> ops s = [ Pauli.X ]) support
      and zz = List.find (fun s -> ops s = [ Pauli.Z; Pauli.Z ]) support in
      let swap s =
        if Pauli_string.equal s x then zz
        else if Pauli_string.equal s zz then x
        else s
      in
      let other =
        Linear_system.skeleton
          ~channels:(Aais.channels (rydberg_for 5).Rydberg.aais)
          ~support:(List.map swap support)
      in
      let index = Linear_system.skeleton_index skeleton in
      let row_of s = Option.get (Term_index.row_of index s) in
      let row_x = row_of x and row_zz = row_of zz in
      Obj.set_field (Obj.repr index) 0
        (Obj.field (Obj.repr (Linear_system.skeleton_index other)) 0);
      Alcotest.(check (pair int int)) "X and ZZ look up each other's rows"
        (row_zz, row_x) (row_of x, row_of zz);
      Alcotest.(check bool) "the row list still reads in order" true
        (Pauli_string.equal (Term_index.string_of index row_x) x);
      payload)

let store_hits () =
  match Compile_plan.store_stats () with
  | Some s -> s.PS.hits
  | None -> Alcotest.fail "store stats missing"

(* A store hit re-derives the analyzer's findings and the lint list
   from the checked support and skeleton over the requester's device, so
   a check, a lint and a compile served from an entry report what the
   cold build did (its QT007 included). *)
let test_store_hit_findings_equal_cold () =
  with_store @@ fun _dir ->
  let aais = (rydberg_for 5).Rydberg.aais in
  let target = static_target "ising-chain" 5 in
  let analyze () = json (Compiler.analyze ~aais ~target ~t_tar:1.0 ()) in
  let lint () =
    json
      (Compile_plan.lint_findings
         (fst
            (Compile_plan.obtain ~options:Compiler.default_options ~aais
               ~target)))
  in
  let cold_check = analyze () in
  let cold_lint = lint () in
  let cold = compile_ising () in
  Alcotest.(check bool) "the cold plan carries a QT007" true
    (List.exists
       (fun (d : Qturbo_analysis.Diagnostic.t) -> d.code = "QT007")
       cold.Compiler.diagnostics);
  Compile_plan.clear_caches ();
  Alcotest.(check string) "check served from the entry" cold_check (analyze ());
  Compile_plan.clear_caches ();
  Alcotest.(check string) "lint served from the entry" cold_lint (lint ());
  Compile_plan.clear_caches ();
  let r = compile_ising () in
  Alcotest.(check bool) "compile served from the entry" true
    r.Compiler.plan.Compiler.store_hit;
  Alcotest.(check string) "compile diagnostics"
    (json cold.Compiler.diagnostics)
    (json r.Compiler.diagnostics);
  Alcotest.(check int) "all three served by the store" 3 (store_hits ())

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

(* [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec matches i k = k = n || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec from i = i + n <= m && (matches i 0 || from (i + 1)) in
  from 0

(* The entry's header carries the exact key, and the payload is the
   plan's support and skeleton: no AAIS, so no copy of the device
   rendering (the key memo included). *)
let test_store_payload_leaves_out_key_memo () =
  with_store @@ fun dir ->
  let aais = (rydberg_for 5).Rydberg.aais in
  let target = static_target "ising-chain" 5 in
  let plan, _ =
    Compile_plan.obtain ~options:Compiler.default_options ~aais ~target
  in
  let rendering = Shape.of_aais aais in
  let payload =
    match
      PS.load
        (PS.open_store ~version:(Compile_plan.store_version ()) ~dir)
        ~key:
          (Compile_plan.plan_key ~options:Compiler.default_options ~aais
             ~target)
    with
    | Some p -> p
    | None -> Alcotest.fail "the fresh build was not persisted"
  in
  Alcotest.(check bool) "the entry's header holds the rendering" true
    (contains ~sub:rendering (read_file (sole_entry dir)));
  Alcotest.(check bool) "the payload holds no copy of it" false
    (contains ~sub:rendering payload);
  Alcotest.(check bool) "the payload is the support and the skeleton" true
    (String.equal payload
       (Marshal.to_string
          (plan.Compile_plan.support, plan.Compile_plan.skeleton)
          []));
  let support, skeleton = (Marshal.from_string payload 0 : payload) in
  Alcotest.(check bool) "it decodes as the request's support" true
    (List.equal Pauli_string.equal support
       (Compile_plan.support_of_target target));
  Alcotest.(check bool) "and as the skeleton the channels build" true
    (Linear_system.built_from ~channels:(Aais.channels aais) ~support
       skeleton)

(* A self-consistent entry for a smaller support on the requester's
   device passes every byte check and the skeleton check for its own
   support; the fetch compares its support with the request's. *)
let test_other_support_rebuilds =
  tampered_entry_rebuilds (fun (support, _) ->
      let channels = Aais.channels (rydberg_for 5).Rydberg.aais in
      let smaller = List.tl support in
      let skeleton = Linear_system.skeleton ~channels ~support:smaller in
      Alcotest.(check bool) "the smaller entry is self-consistent" true
        (Linear_system.built_from ~channels ~support:smaller skeleton);
      (smaller, skeleton))

(* The key's [g=<flag>|] prefix files the two solver flags' plans apart:
   a compile under the other flag, on the same store, misses and builds
   its own entry with the store-off bits, and each flag then hits its
   own entry. *)
let test_other_solver_flag_own_entry () =
  with_store @@ fun dir ->
  let generic =
    { Compiler.default_options with Compiler.generic_local_solver = true }
  in
  ignore (compile_ising ());
  Compile_plan.disable_store ();
  Compile_plan.clear_caches ();
  let off = compile_ising ~options:generic () in
  Compile_plan.enable_store ~dir;
  Compile_plan.clear_caches ();
  let r = compile_ising ~options:generic () in
  Alcotest.(check bool) "the other flag misses" false
    r.Compiler.plan.Compiler.store_hit;
  check_bits "t_sim as store-off" off.Compiler.t_sim r.Compiler.t_sim;
  check_bits_arr "env as store-off" off.Compiler.env r.Compiler.env;
  check_bits "error as store-off" off.Compiler.error_l1 r.Compiler.error_l1;
  Alcotest.(check int) "two entries" 2 (Array.length (Sys.readdir dir));
  (match Compile_plan.store_stats () with
  | None -> Alcotest.fail "store stats missing"
  | Some s -> Alcotest.(check int) "not counted as corrupt" 0 s.PS.corrupt);
  List.iter
    (fun (what, options) ->
      Compile_plan.clear_caches ();
      let r = compile_ising ~options () in
      Alcotest.(check bool) (what ^ " hits its own entry") true
        r.Compiler.plan.Compiler.store_hit)
    [ ("default", Compiler.default_options); ("generic", generic) ]

(* A store hit builds its device part from the requester's AAIS, as a
   fresh build does, and gives the cold build's bits at any pool
   width. *)
let test_store_hit_builds_device_part () =
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
  (* a fresh process's hit solved on a 4-wide pool gives the cold
     build's bits too *)
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
          Alcotest.test_case "a doubled cell coefficient rebuilds" `Quick
            test_doubled_cell_rebuilds;
          Alcotest.test_case "a swapped lookup table rebuilds" `Quick
            test_swapped_lookup_rebuilds;
          Alcotest.test_case "bitwise identical on/off, domains 1 and 4"
            `Quick test_store_bitwise_identical_across_domains;
          Alcotest.test_case "payload leaves out the key memo" `Quick
            test_store_payload_leaves_out_key_memo;
          Alcotest.test_case "an entry for another support rebuilds" `Quick
            test_other_support_rebuilds;
          Alcotest.test_case "an entry with the other solver flag rebuilds"
            `Quick test_other_solver_flag_own_entry;
          Alcotest.test_case "a store hit builds its device part"
            `Quick test_store_hit_builds_device_part;
          Alcotest.test_case "radii keeping the same pairs key apart"
            `Quick test_radii_keeping_the_same_pairs_key_apart;
          Alcotest.test_case "store-hit findings equal cold ones"
            `Quick test_store_hit_findings_equal_cold;
        ] );
    ]
