(* Tests for qturbo.pauli: single-site algebra, Pauli strings, Pauli sums. *)

open Qturbo_pauli

let op = Alcotest.testable (fun ppf o -> Format.pp_print_string ppf (Pauli.op_to_string o)) Pauli.equal_op

let pstring =
  Alcotest.testable (fun ppf s -> Pauli_string.pp ppf s) Pauli_string.equal

(* ---- Pauli ---- *)

let test_mul_table () =
  let check a b expect_phase expect_op =
    let phase, o = Pauli.mul a b in
    Alcotest.(check bool) "phase" true (phase = expect_phase);
    Alcotest.check op "op" expect_op o
  in
  check Pauli.X Pauli.Y Pauli.Pi Pauli.Z;
  check Pauli.Y Pauli.X Pauli.Pmi Pauli.Z;
  check Pauli.Y Pauli.Z Pauli.Pi Pauli.X;
  check Pauli.Z Pauli.X Pauli.Pi Pauli.Y;
  check Pauli.X Pauli.X Pauli.P1 Pauli.I;
  check Pauli.I Pauli.Z Pauli.P1 Pauli.Z

let test_phase_mul () =
  Alcotest.(check bool) "i*i = -1" true (Pauli.phase_mul Pauli.Pi Pauli.Pi = Pauli.Pm1);
  Alcotest.(check bool) "i*-i = 1" true (Pauli.phase_mul Pauli.Pi Pauli.Pmi = Pauli.P1);
  Alcotest.(check bool) "-1*-1 = 1" true (Pauli.phase_mul Pauli.Pm1 Pauli.Pm1 = Pauli.P1)

let test_commutes () =
  Alcotest.(check bool) "X,I" true (Pauli.commutes Pauli.X Pauli.I);
  Alcotest.(check bool) "X,X" true (Pauli.commutes Pauli.X Pauli.X);
  Alcotest.(check bool) "X,Y" false (Pauli.commutes Pauli.X Pauli.Y);
  Alcotest.(check bool) "Z,Y" false (Pauli.commutes Pauli.Z Pauli.Y)

let test_op_of_char () =
  Alcotest.(check (option op)) "Z" (Some Pauli.Z) (Pauli.op_of_char 'Z');
  Alcotest.(check (option op)) "bad" None (Pauli.op_of_char 'q')

let test_matrices_unitary () =
  (* each Pauli matrix squares to the identity *)
  let mul2 a b =
    Array.init 4 (fun k ->
        let i = k / 2 and j = k mod 2 in
        Complex.add
          (Complex.mul a.((i * 2) + 0) b.(0 + j))
          (Complex.mul a.((i * 2) + 1) b.(2 + j)))
  in
  List.iter
    (fun o ->
      let m = Pauli.matrix o in
      let sq = mul2 m m in
      let id = Pauli.matrix Pauli.I in
      Array.iteri
        (fun k c ->
          if Complex.norm (Complex.sub c id.(k)) > 1e-12 then
            Alcotest.failf "%s^2 <> I" (Pauli.op_to_string o))
        sq)
    [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]

(* ---- Pauli_string ---- *)

let test_string_of_list_drops_identity () =
  let s = Pauli_string.of_list [ (0, Pauli.I); (3, Pauli.Z) ] in
  Alcotest.(check int) "weight" 1 (Pauli_string.weight s);
  Alcotest.check op "op at 3" Pauli.Z (Pauli_string.op_at s 3);
  Alcotest.check op "op at 0" Pauli.I (Pauli_string.op_at s 0)

let test_string_duplicate_site_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Pauli_string.of_list: duplicate site")
    (fun () -> ignore (Pauli_string.of_list [ (1, Pauli.X); (1, Pauli.Z) ]))

let test_string_negative_site_rejected () =
  Alcotest.check_raises "neg" (Invalid_argument "Pauli_string.of_list: negative site")
    (fun () -> ignore (Pauli_string.of_list [ (-1, Pauli.X) ]))

let test_string_mul_disjoint () =
  let a = Pauli_string.single 0 Pauli.Z in
  let b = Pauli_string.single 1 Pauli.Z in
  let phase, prod = Pauli_string.mul a b in
  Alcotest.(check bool) "no phase" true (phase = Pauli.P1);
  Alcotest.check pstring "ZZ" (Pauli_string.two 0 Pauli.Z 1 Pauli.Z) prod

let test_string_mul_same_site () =
  let a = Pauli_string.single 0 Pauli.X in
  let b = Pauli_string.single 0 Pauli.Y in
  let phase, prod = Pauli_string.mul a b in
  Alcotest.(check bool) "i phase" true (phase = Pauli.Pi);
  Alcotest.check pstring "Z" (Pauli_string.single 0 Pauli.Z) prod

let test_string_mul_self_inverse () =
  let s = Pauli_string.of_string "XYZX" in
  let phase, prod = Pauli_string.mul s s in
  Alcotest.(check bool) "identity" true (Pauli_string.is_identity prod);
  (* each of X,Y,Z squares with phase +1 *)
  Alcotest.(check bool) "no phase" true (phase = Pauli.P1)

let test_string_commutes () =
  let zz = Pauli_string.of_string "ZZ" in
  let xx = Pauli_string.of_string "XX" in
  let xi = Pauli_string.of_string "XI" in
  Alcotest.(check bool) "ZZ,XX commute (two anticommuting sites)" true
    (Pauli_string.commutes zz xx);
  Alcotest.(check bool) "ZZ,XI anticommute" false (Pauli_string.commutes zz xi)

let test_string_parse_print () =
  let s = Pauli_string.of_string "IZIX" in
  Alcotest.(check string) "to_string" "IZIX" (Pauli_string.to_string s);
  Alcotest.(check string) "padded" "IZIXII" (Pauli_string.to_string ~n:6 s);
  Alcotest.(check int) "max site" 3 (Pauli_string.max_site s);
  Alcotest.(check (list int)) "support" [ 1; 3 ] (Pauli_string.support s)

let test_string_parse_rejects () =
  Alcotest.check_raises "bad char"
    (Invalid_argument "Pauli_string.of_string: invalid character") (fun () ->
      ignore (Pauli_string.of_string "XQ"))

let test_string_compare_total_order () =
  let a = Pauli_string.of_string "X" in
  let b = Pauli_string.of_string "Z" in
  Alcotest.(check bool) "antisym" true
    (Pauli_string.compare a b = -Pauli_string.compare b a);
  Alcotest.(check int) "refl" 0 (Pauli_string.compare a a)

(* ---- Pauli_sum ---- *)

let test_sum_merge_terms () =
  let zz = Pauli_string.of_string "ZZ" in
  let h = Pauli_sum.of_list [ (zz, 1.0); (zz, 2.0) ] in
  Alcotest.(check int) "one term" 1 (Pauli_sum.term_count h);
  Alcotest.(check (float 1e-12)) "merged" 3.0 (Pauli_sum.coeff h zz)

let test_sum_zero_pruned () =
  let zz = Pauli_string.of_string "ZZ" in
  let h = Pauli_sum.of_list [ (zz, 1.0); (zz, -1.0) ] in
  Alcotest.(check int) "empty" 0 (Pauli_sum.term_count h)

let test_sum_add_sub_scale () =
  let x0 = Pauli_string.single 0 Pauli.X in
  let z0 = Pauli_string.single 0 Pauli.Z in
  let a = Pauli_sum.of_list [ (x0, 1.0); (z0, 2.0) ] in
  let b = Pauli_sum.of_list [ (x0, 0.5) ] in
  let c = Pauli_sum.sub (Pauli_sum.scale 2.0 a) b in
  Alcotest.(check (float 1e-12)) "x coeff" 1.5 (Pauli_sum.coeff c x0);
  Alcotest.(check (float 1e-12)) "z coeff" 4.0 (Pauli_sum.coeff c z0)

let test_sum_norm1 () =
  let h =
    Pauli_sum.of_list
      [ (Pauli_string.single 0 Pauli.X, -3.0); (Pauli_string.single 1 Pauli.Z, 4.0) ]
  in
  Alcotest.(check (float 1e-12)) "norm1" 7.0 (Pauli_sum.norm1 h)

let test_sum_n_qubits () =
  let h = Pauli_sum.term 1.0 (Pauli_string.single 6 Pauli.Y) in
  Alcotest.(check int) "n" 7 (Pauli_sum.n_qubits h)

let test_sum_drop_identity () =
  let h =
    Pauli_sum.of_list
      [ (Pauli_string.identity, 5.0); (Pauli_string.single 0 Pauli.Z, 1.0) ]
  in
  Alcotest.(check int) "dropped" 1 (Pauli_sum.term_count (Pauli_sum.drop_identity h))

let test_sum_mul_real () =
  (* (X0)(X0) = I *)
  let x0 = Pauli_sum.term 2.0 (Pauli_string.single 0 Pauli.X) in
  let prod, all_real = Pauli_sum.mul x0 x0 in
  Alcotest.(check bool) "real" true all_real;
  Alcotest.(check (float 1e-12)) "identity coeff" 4.0
    (Pauli_sum.coeff prod Pauli_string.identity)

let test_sum_mul_imaginary_flagged () =
  let x0 = Pauli_sum.term 1.0 (Pauli_string.single 0 Pauli.X) in
  let y0 = Pauli_sum.term 1.0 (Pauli_string.single 0 Pauli.Y) in
  let _, all_real = Pauli_sum.mul x0 y0 in
  Alcotest.(check bool) "flagged" false all_real

let test_sum_equal_tol () =
  let z = Pauli_string.single 0 Pauli.Z in
  let a = Pauli_sum.term 1.0 z and b = Pauli_sum.term 1.0000001 z in
  Alcotest.(check bool) "within tol" true (Pauli_sum.equal ~tol:1e-5 a b);
  Alcotest.(check bool) "strict" false (Pauli_sum.equal a b)

(* number-operator identities used by the models *)
let test_number_operator_expansion () =
  let n0 = Qturbo_models.Rydberg_ops.number 0 in
  Alcotest.(check (float 1e-12)) "identity part" 0.5
    (Pauli_sum.coeff n0 Pauli_string.identity);
  Alcotest.(check (float 1e-12)) "z part" (-0.5)
    (Pauli_sum.coeff n0 (Pauli_string.single 0 Pauli.Z));
  (* n̂² = n̂ (projector): check via product *)
  let sq, real = Pauli_sum.mul n0 n0 in
  Alcotest.(check bool) "real" true real;
  Alcotest.(check bool) "projector" true (Pauli_sum.equal ~tol:1e-12 sq n0)

let test_number_number_expansion () =
  let nn = Qturbo_models.Rydberg_ops.number_number 0 1 in
  let direct, real =
    Pauli_sum.mul (Qturbo_models.Rydberg_ops.number 0) (Qturbo_models.Rydberg_ops.number 1)
  in
  Alcotest.(check bool) "real" true real;
  Alcotest.(check bool) "n0*n1 = nn" true (Pauli_sum.equal ~tol:1e-12 direct nn)

(* ---- qcheck properties ---- *)

let op_gen = QCheck.Gen.oneofl [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]

let string_gen =
  QCheck.Gen.(
    int_range 0 5 >>= fun n ->
    list_repeat n op_gen >>= fun ops ->
    return (Pauli_string.of_list (List.mapi (fun i o -> (i, o)) ops)))

let arb_string = QCheck.make ~print:(Format.asprintf "%a" Pauli_string.pp) string_gen

let prop_mul_weight_support =
  QCheck.Test.make ~name:"product support within union of supports" ~count:300
    (QCheck.pair arb_string arb_string) (fun (a, b) ->
      let _, p = Pauli_string.mul a b in
      List.for_all
        (fun site ->
          List.mem site (Pauli_string.support a) || List.mem site (Pauli_string.support b))
        (Pauli_string.support p))

let prop_mul_identity =
  QCheck.Test.make ~name:"identity is a two-sided unit" ~count:200 arb_string
    (fun s ->
      let p1, l = Pauli_string.mul Pauli_string.identity s in
      let p2, r = Pauli_string.mul s Pauli_string.identity in
      p1 = Pauli.P1 && p2 = Pauli.P1 && Pauli_string.equal l s && Pauli_string.equal r s)

let prop_commute_symmetric =
  QCheck.Test.make ~name:"commutation relation is symmetric" ~count:300
    (QCheck.pair arb_string arb_string) (fun (a, b) ->
      Pauli_string.commutes a b = Pauli_string.commutes b a)

let prop_self_square_identity =
  QCheck.Test.make ~name:"every string squares to the identity" ~count:300
    arb_string (fun s ->
      let _, p = Pauli_string.mul s s in
      Pauli_string.is_identity p)

let prop_sum_add_commutative =
  QCheck.Test.make ~name:"pauli-sum addition is commutative" ~count:200
    (QCheck.pair (QCheck.pair arb_string QCheck.(float_range (-3.) 3.))
       (QCheck.pair arb_string QCheck.(float_range (-3.) 3.)))
    (fun (((s1, c1)), ((s2, c2))) ->
      let a = Pauli_sum.term c1 s1 and b = Pauli_sum.term c2 s2 in
      Pauli_sum.equal ~tol:1e-12 (Pauli_sum.add a b) (Pauli_sum.add b a))

(* ---- the packed representation against a map-based reference ---- *)

(* The site-keyed map Pauli strings were before they became sorted code
   arrays, kept here as the specification every operation must match. *)
module Reference = struct
  module M = Map.Make (Int)

  let of_list pairs =
    List.fold_left
      (fun acc (site, op) ->
        if site < 0 then invalid_arg "Pauli_string.of_list: negative site";
        match op with
        | Pauli.I -> acc
        | Pauli.X | Pauli.Y | Pauli.Z ->
            if M.mem site acc then
              invalid_arg "Pauli_string.of_list: duplicate site";
            M.add site op acc)
      M.empty pairs

  let two i a j b =
    if i = j then invalid_arg "Pauli_string.two: equal sites";
    of_list [ (i, a); (j, b) ]

  let op_at t i = Option.value (M.find_opt i t) ~default:Pauli.I
  let max_site t = match M.max_binding_opt t with Some (s, _) -> s | None -> -1

  let mul a b =
    let phase = ref Pauli.P1 in
    let merged =
      M.merge
        (fun _ oa ob ->
          match (oa, ob) with
          | None, None -> None
          | Some o, None | None, Some o -> Some o
          | Some o1, Some o2 -> (
              let p, o = Pauli.mul o1 o2 in
              phase := Pauli.phase_mul !phase p;
              match o with Pauli.I -> None | o -> Some o))
        a b
    in
    (!phase, merged)

  let commutes a b =
    M.fold
      (fun site oa odd -> if Pauli.commutes oa (op_at b site) then odd else not odd)
      a false
    |> not

  let compare = M.compare Pauli.compare_op

  let hash t =
    M.fold
      (fun site op acc ->
        let opi = match op with Pauli.I -> 0 | X -> 1 | Y -> 2 | Z -> 3 in
        (acc * 1_000_003) + (site * 4) + opi)
      t 17

  let of_string s =
    let pairs = ref [] in
    String.iteri
      (fun i c ->
        match Pauli.op_of_char c with
        | Some op -> pairs := (i, op) :: !pairs
        | None -> invalid_arg "Pauli_string.of_string: invalid character")
      s;
    of_list !pairs

  let to_string ?n t =
    let len = match n with Some n -> n | None -> max_site t + 1 in
    String.init len (fun i -> (Pauli.op_to_string (op_at t i)).[0])
end

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Sites cluster in a small range half the time, so pairs share prefixes
   and whole strings, and spread up to 2^20 otherwise. *)
let site_gen = QCheck.Gen.(oneof [ int_range 0 7; int_range 0 (1 lsl 20) ])
let xyz_gen = QCheck.Gen.oneofl [ Pauli.X; Pauli.Y; Pauli.Z ]

(* distinct sites, weight 0-6, every op X, Y or Z *)
let pairs_gen =
  QCheck.Gen.(
    int_range 0 6 >>= fun w ->
    list_repeat w (pair site_gen xyz_gen) >>= fun pairs ->
    return (List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) pairs)
    >>= fun sorted -> shuffle_l sorted)

(* the second string is the first, the first with one op changed or one
   site added, or independent *)
let pairs_pair_gen =
  QCheck.Gen.(
    pairs_gen >>= fun a ->
    let changed =
      match a with
      | [] -> return a
      | (s, _) :: rest -> map (fun op -> (s, op) :: rest) xyz_gen
    in
    let extended =
      map2
        (fun s op -> if List.mem_assoc s a then a else (s, op) :: a)
        site_gen xyz_gen
    in
    oneof [ return a; changed; extended; pairs_gen ] >>= fun b -> return (a, b))

let print_pairs l =
  String.concat " "
    (List.map (fun (s, op) -> Pauli.op_to_string op ^ string_of_int s) l)

let sign x = Int.compare x 0

let prop_matches_reference =
  QCheck.Test.make ~name:"packed strings agree with the map reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> print_pairs a ^ " | " ^ print_pairs b)
       pairs_pair_gen)
    (fun (pa, pb) ->
      let a = Pauli_string.of_list pa and b = Pauli_string.of_list pb in
      let ra = Reference.of_list pa and rb = Reference.of_list pb in
      let bindings = Reference.M.bindings in
      let iterated s =
        let acc = ref [] in
        Pauli_string.iter (fun site op -> acc := (site, op) :: !acc) s;
        List.rev !acc
      in
      let phase, prod = Pauli_string.mul a b in
      let rphase, rprod = Reference.mul ra rb in
      let probe = match pa with (s, _) :: _ -> [ s; s + 1; 0 ] | [] -> [ 0; 3 ] in
      sign (Pauli_string.compare a b) = sign (Reference.compare ra rb)
      && Pauli_string.equal a b = (Reference.compare ra rb = 0)
      && Pauli_string.hash a = Reference.hash ra
      && phase = rphase
      && Pauli_string.to_list prod = bindings rprod
      && Pauli_string.commutes a b = Reference.commutes ra rb
      && List.for_all (fun i -> Pauli_string.op_at a i = Reference.op_at ra i) probe
      && Pauli_string.weight a = Reference.M.cardinal ra
      && Pauli_string.support a = List.map fst (bindings ra)
      && Pauli_string.max_site a = Reference.max_site ra
      && Pauli_string.to_list a = bindings ra
      && iterated a = bindings ra)

(* raw inputs: repeated and negative sites, identity entries *)
let raw_pair_gen =
  QCheck.Gen.(
    pair
      (oneof [ int_range (-2) 5; int_range 0 (1 lsl 20) ])
      (oneofl [ Pauli.I; Pauli.X; Pauli.Y; Pauli.Z ]))

let prop_constructors_match_reference =
  QCheck.Test.make ~name:"of_list and two raise and build as the reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (l, _) -> print_pairs l)
       QCheck.Gen.(pair (list_size (int_range 0 6) raw_pair_gen) (pair raw_pair_gen raw_pair_gen)))
    (fun (raw, ((i, a), (j, b))) ->
      let same f g =
        match (outcome f, outcome g) with
        | Ok s, Ok r -> Pauli_string.to_list s = Reference.M.bindings r
        | Error m, Error m' -> String.equal m m'
        | _ -> false
      in
      same (fun () -> Pauli_string.of_list raw) (fun () -> Reference.of_list raw)
      && same (fun () -> Pauli_string.two i a j b) (fun () -> Reference.two i a j b))

let prop_dense_spelling_matches_reference =
  QCheck.Test.make ~name:"of_string and to_string agree with the reference"
    ~count:1000
    QCheck.(pair (string_gen_of_size Gen.(int_range 0 12) (Gen.oneofl [ 'I'; 'X'; 'Y'; 'Z'; 'I'; 'Q' ])) (int_range 0 14))
    (fun (text, n) ->
      match
        (outcome (fun () -> Pauli_string.of_string text),
         outcome (fun () -> Reference.of_string text))
      with
      | Ok s, Ok r ->
          Pauli_string.to_list s = Reference.M.bindings r
          && String.equal (Pauli_string.to_string s) (Reference.to_string r)
          && String.equal (Pauli_string.to_string ~n s) (Reference.to_string ~n r)
      | Error m, Error m' -> String.equal m m'
      | _ -> false)

(* Bytes, not time: the row key of every string-keyed table and map must
   cost nothing to compare, test for equality or hash. *)
let test_key_operations_allocate_nothing () =
  let allocated f =
    let before = Qturbo_util.Alloc.bytes () in
    f ();
    Qturbo_util.Alloc.bytes () -. before
  in
  let a = Pauli_string.two 3 Pauli.Z 17 Pauli.Z in
  let a' = Pauli_string.two 17 Pauli.Z 3 Pauli.Z in
  let b = Pauli_string.two 3 Pauli.Z 17 Pauli.X in
  let repeat op () =
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (op a a'));
      ignore (Sys.opaque_identity (op a b))
    done
  in
  let overhead = allocated (fun () -> ()) in
  List.iter
    (fun (name, f) ->
      let bytes = allocated f -. overhead in
      if bytes <> 0.0 then
        Alcotest.failf "2000 weight-2 %s calls allocated %.0f bytes" name bytes)
    [
      ("compare", repeat Pauli_string.compare);
      ("equal", repeat (fun x y -> if Pauli_string.equal x y then 1 else 0));
      ("hash", repeat (fun x _ -> Pauli_string.hash x));
    ]

let () =
  Alcotest.run "pauli"
    [
      ( "pauli",
        [
          Alcotest.test_case "multiplication table" `Quick test_mul_table;
          Alcotest.test_case "phase multiplication" `Quick test_phase_mul;
          Alcotest.test_case "commutation" `Quick test_commutes;
          Alcotest.test_case "parsing" `Quick test_op_of_char;
          Alcotest.test_case "matrices square to I" `Quick test_matrices_unitary;
        ] );
      ( "pauli_string",
        [
          Alcotest.test_case "identity dropped" `Quick test_string_of_list_drops_identity;
          Alcotest.test_case "duplicate rejected" `Quick test_string_duplicate_site_rejected;
          Alcotest.test_case "negative rejected" `Quick test_string_negative_site_rejected;
          Alcotest.test_case "disjoint product" `Quick test_string_mul_disjoint;
          Alcotest.test_case "same-site product" `Quick test_string_mul_same_site;
          Alcotest.test_case "self inverse" `Quick test_string_mul_self_inverse;
          Alcotest.test_case "string commutation" `Quick test_string_commutes;
          Alcotest.test_case "parse print" `Quick test_string_parse_print;
          Alcotest.test_case "parse rejects" `Quick test_string_parse_rejects;
          Alcotest.test_case "total order" `Quick test_string_compare_total_order;
          Alcotest.test_case "compare, equal and hash allocate nothing" `Quick
            test_key_operations_allocate_nothing;
        ] );
      ( "pauli_sum",
        [
          Alcotest.test_case "merge" `Quick test_sum_merge_terms;
          Alcotest.test_case "zero pruned" `Quick test_sum_zero_pruned;
          Alcotest.test_case "arith" `Quick test_sum_add_sub_scale;
          Alcotest.test_case "norm1" `Quick test_sum_norm1;
          Alcotest.test_case "n_qubits" `Quick test_sum_n_qubits;
          Alcotest.test_case "drop identity" `Quick test_sum_drop_identity;
          Alcotest.test_case "real product" `Quick test_sum_mul_real;
          Alcotest.test_case "imaginary flag" `Quick test_sum_mul_imaginary_flagged;
          Alcotest.test_case "tolerant equality" `Quick test_sum_equal_tol;
          Alcotest.test_case "number operator" `Quick test_number_operator_expansion;
          Alcotest.test_case "number-number" `Quick test_number_number_expansion;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mul_weight_support;
            prop_mul_identity;
            prop_commute_symmetric;
            prop_self_square_identity;
            prop_sum_add_commutative;
            prop_matches_reference;
            prop_constructors_match_reference;
            prop_dense_spelling_matches_reference;
          ] );
    ]
