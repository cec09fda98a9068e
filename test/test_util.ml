(* Tests for qturbo.util: RNG determinism and distributions, statistics,
   float comparison, table rendering. *)

open Qturbo_util

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  Alcotest.(check bool) "different streams" false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:5L in
  let _ = Rng.next_int64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:5L in
  let child = Rng.split a in
  Alcotest.(check bool) "child differs from parent" false
    (Rng.next_int64 a = Rng.next_int64 child)

let test_rng_float_range () =
  let rng = Rng.create ~seed:11L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_float_mean () =
  let rng = Rng.create ~seed:13L in
  let xs = Array.init 50_000 (fun _ -> Rng.float rng) in
  let mean = Stats.mean xs in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "uniform mean %.4f too far from 0.5" mean

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:17L in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian rng ~mu:2.0 ~sigma:3.0) in
  let mean = Stats.mean xs and sd = Stats.stddev xs in
  if Float.abs (mean -. 2.0) > 0.05 then Alcotest.failf "gaussian mean %.3f" mean;
  if Float.abs (sd -. 3.0) > 0.05 then Alcotest.failf "gaussian sd %.3f" sd

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:19L in
  let counts = Array.make 7 0 in
  for _ = 1 to 7_000 do
    let k = Rng.int rng ~bound:7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c -> if c = 0 then Alcotest.failf "bucket %d never hit" i)
    counts

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:23L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_uniform_range () =
  let rng = Rng.create ~seed:29L in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng ~lo:(-2.0) ~hi:5.0 in
    if x < -2.0 || x >= 5.0 then Alcotest.fail "uniform out of range"
  done

(* ---- Stats ---- *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_variance () =
  (* mean 3, squared deviations 4 + 1 + 0 + 9 = 14, over n - 1 = 3 *)
  check_float "sample variance" (14.0 /. 3.0)
    (Stats.variance [| 1.0; 2.0; 3.0; 6.0 |])

let test_variance_singleton () = check_float "n<2" 0.0 (Stats.variance [| 5.0 |])

let test_median_odd () = check_float "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_median_even () =
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile a ~p:0.0);
  check_float "p100" 50.0 (Stats.percentile a ~p:100.0);
  check_float "p50" 30.0 (Stats.percentile a ~p:50.0);
  check_float "p25" 20.0 (Stats.percentile a ~p:25.0)

let test_geometric_mean () =
  check_float "geomean" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |])

let test_geometric_mean_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geometric_mean: nonpositive element") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_linear_fit () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  let slope, intercept = Stats.linear_fit xs ys in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

(* ---- Float_cmp ---- *)

let test_approx_basic () =
  Alcotest.(check bool) "equal" true (Float_cmp.approx 1.0 1.0);
  Alcotest.(check bool) "close" true (Float_cmp.approx 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Float_cmp.approx 1.0 1.1)

let test_approx_nan () =
  Alcotest.(check bool) "nan" false (Float_cmp.approx Float.nan Float.nan)

let test_approx_array () =
  Alcotest.(check bool) "arrays" true
    (Float_cmp.approx_array [| 1.0; 2.0 |] [| 1.0; 2.0 |]);
  Alcotest.(check bool) "length mismatch" false
    (Float_cmp.approx_array [| 1.0 |] [| 1.0; 2.0 |])

let test_clamp () =
  check_float "below" 0.0 (Float_cmp.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_float "above" 1.0 (Float_cmp.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_float "inside" 0.5 (Float_cmp.clamp ~lo:0.0 ~hi:1.0 0.5)

(* ---- Table_fmt ---- *)

let test_table_render () =
  let t = Table_fmt.create ~header:[ "name"; "value" ] in
  Table_fmt.add_row t [ "alpha"; "1" ];
  Table_fmt.add_row t [ "b" ];
  let rendered = Table_fmt.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 4 = "name")

let test_table_rejects_wide_rows () =
  let t = Table_fmt.create ~header:[ "one" ] in
  Alcotest.check_raises "wide row"
    (Invalid_argument "Table_fmt.add_row: row wider than header") (fun () ->
      Table_fmt.add_row t [ "a"; "b" ])

let test_cell_of_float () =
  Alcotest.(check string) "nan is dash" "-" (Table_fmt.cell_of_float Float.nan);
  Alcotest.(check string) "zero" "0" (Table_fmt.cell_of_float 0.0);
  Alcotest.(check string) "plain" "1.5000" (Table_fmt.cell_of_float 1.5)

(* ---- Json: emit/parse round-trip ---- *)

(* Sized generator over the full value ADT: deep nesting, exotic keys
   and strings (escapes, control characters), non-finite floats. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneof [ printable; char ]) (int_range 0 12)
  in
  let num =
    frequency
      [
        (8, float);
        (2, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ]);
      ]
  in
  fix
    (fun self depth ->
      let leaf =
        frequency
          [
            (1, return Json.Null);
            (2, map (fun b -> Json.Bool b) bool);
            (4, map (fun f -> Json.Number f) num);
            (4, map (fun s -> Json.String s) str);
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 2,
              map
                (fun l -> Json.Array l)
                (list_size (int_range 0 4) (self (depth - 1))) );
            ( 2,
              map
                (fun l -> Json.Object l)
                (list_size (int_range 0 4)
                   (pair str (self (depth - 1)))) );
          ])
    4

(* [emit] maps non-finite numbers to [null] (JSON has no token for
   them); the round-trip is exact modulo that normalization. *)
let rec json_normalize = function
  | Json.Number f when not (Float.is_finite f) -> Json.Null
  | Json.Array l -> Json.Array (List.map json_normalize l)
  | Json.Object l ->
      Json.Object (List.map (fun (k, v) -> (k, json_normalize v)) l)
  | v -> v

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Number x, Json.Number y ->
      (* distinguish -0.0 from 0.0: emit prints "-0", which must parse
         back to the negative zero *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.String x, Json.String y -> String.equal x y
  | Json.Array x, Json.Array y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Object x, Json.Object y ->
      List.length x = List.length y
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && json_equal va vb)
           x y
  | _, _ -> false

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (emit v) = v (mod non-finite -> null)"
    ~count:1000
    (QCheck.make json_gen)
    (fun v ->
      match Json.parse (Json.emit v) with
      | Ok back -> json_equal back (json_normalize v)
      | Error msg -> QCheck.Test.fail_reportf "emit produced invalid JSON: %s" msg)

let prop_json_emit_stable =
  QCheck.Test.make ~name:"emit (parse (emit v)) = emit v" ~count:500
    (QCheck.make json_gen)
    (fun v ->
      let once = Json.emit v in
      String.equal once (Json.emit (Json.parse_exn once)))

(* [float_lit] skips Printf's format interpreter; its finite output
   must be the text [Printf.sprintf "%.17g"] gives, on every bit
   pattern: random ones, subnormals, signed zeros and the extremes. *)
let prop_json_float_lit_matches_printf =
  let special =
    [
      0.0; -0.0; max_float; -.max_float; min_float; Float.min_float /. 2.0;
      4.9406564584124654e-324; -4.9406564584124654e-324; 1.0; 0.1;
      infinity; neg_infinity; nan;
    ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (6, map Int64.float_of_bits ui64);
          (2, map (fun m -> Int64.float_of_bits (Int64.logand m 0x800f_ffff_ffff_ffffL)) ui64);
          (1, oneofl special);
        ])
  in
  QCheck.Test.make ~name:"float_lit = Printf %.17g on finite floats" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      String.equal (Json.float_lit f)
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null"))

let test_json_rejects_malformed () =
  let bad =
    [
      "";
      "   ";
      "nul";
      "tru";
      "truex";
      "nan";
      "NaN";
      "Infinity";
      "-Infinity";
      "+1";
      "01";
      "1.";
      ".5";
      "1e";
      "1e+";
      "--1";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"ctrl \x01 char\"";
      "\"\\u12\"";
      "\"\\u12zz\"";
      "[1,]";
      "[1 2]";
      "[";
      "]";
      "{";
      "{\"a\"}";
      "{\"a\":}";
      "{\"a\":1,}";
      "{\"a\" 1}";
      "{a:1}";
      "1 2";
      "{} []";
      "null garbage";
    ]
  in
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" text
      | Error _ -> ())
    bad

let test_json_emit_examples () =
  Alcotest.(check string) "escapes" "{\"a\\\"b\":\"x\\ny\"}"
    (Json.emit (Json.Object [ ("a\"b", Json.String "x\ny") ]));
  Alcotest.(check string) "non-finite to null" "[null,null,null]"
    (Json.emit
       (Json.Array
          [
            Json.Number Float.nan;
            Json.Number Float.infinity;
            Json.Number Float.neg_infinity;
          ]));
  Alcotest.(check string) "empty containers" "{\"a\":[],\"b\":{}}"
    (Json.emit (Json.Object [ ("a", Json.Array []); ("b", Json.Object []) ]))

(* ---- Json: RFC 8259 surrogate pairs ---- *)

let utf8_of_scalar u =
  let b = Buffer.create 4 in
  Buffer.add_utf_8_uchar b (Uchar.of_int u);
  Buffer.contents b

let parse_string_exn text =
  match Json.parse_exn text with
  | Json.String s -> s
  | _ -> Alcotest.failf "%S did not parse to a string" text

let test_json_surrogate_pairs () =
  Alcotest.(check string) "U+1F600" (utf8_of_scalar 0x1F600)
    (parse_string_exn {|"\ud83d\ude00"|});
  Alcotest.(check string) "pair floor U+10000" (utf8_of_scalar 0x10000)
    (parse_string_exn {|"\ud800\udc00"|});
  Alcotest.(check string) "pair ceiling U+10FFFF" (utf8_of_scalar 0x10FFFF)
    (parse_string_exn {|"\udbff\udfff"|});
  Alcotest.(check string) "pair amid text"
    ("ab" ^ utf8_of_scalar 0x1D11E ^ "cd")
    (parse_string_exn {|"ab\ud834\udd1ecd"|});
  (* capital hex digits *)
  Alcotest.(check string) "uppercase hex" (utf8_of_scalar 0x1F600)
    (parse_string_exn {|"😀"|});
  (* a lone or mismatched surrogate is malformed, not silently decoded *)
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted lone/mismatched surrogate %S" text
      | Error _ -> ())
    [
      {|"\ud800"|} (* lone high, end of string *);
      {|"\udc00"|} (* lone low *);
      {|"\ude00\ud83d"|} (* reversed pair *);
      {|"\ud83d x"|} (* high then raw text *);
      {|"\ud83dA"|} (* high then non-surrogate escape *);
      {|"\ud83d\ud83d"|} (* high then high *);
      {|"\ud83d\n"|} (* high then a different escape *);
    ]

(* Every astral scalar's escaped surrogate pair decodes to exactly its
   UTF-8 bytes. *)
let prop_json_surrogate_escape_equiv =
  QCheck.Test.make ~name:"escaped surrogate pair = raw UTF-8" ~count:500
    QCheck.(make Gen.(int_range 0x10000 0x10FFFF))
    (fun u ->
      let v = u - 0x10000 in
      let hi = 0xD800 lor (v lsr 10) and lo = 0xDC00 lor (v land 0x3FF) in
      let escaped = Printf.sprintf "\"\\u%04x\\u%04x\"" hi lo in
      match Json.parse escaped with
      | Ok (Json.String s) -> String.equal s (utf8_of_scalar u)
      | _ -> false)

(* parse/emit round-trip over well-formed UTF-8 strings, astral plane
   included (the byte-oriented [json_gen] above never produces them). *)
let utf8_string_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        int_range 0x20 0x7E;
        int_range 0xA0 0xD7FF;
        int_range 0xE000 0xFFFD;
        int_range 0x10000 0x10FFFF;
      ]
  in
  map
    (fun us -> String.concat "" (List.map utf8_of_scalar us))
    (list_size (int_range 0 10) scalar)

let prop_json_utf8_roundtrip =
  QCheck.Test.make ~name:"astral-plane strings round-trip" ~count:500
    (QCheck.make utf8_string_gen)
    (fun s ->
      match Json.parse (Json.emit (Json.String s)) with
      | Ok (Json.String back) -> String.equal back s
      | _ -> false)

(* ---- Json: nesting-depth bound ---- *)

let test_json_depth_limit () =
  let deep k = String.make k '[' ^ String.make k ']' in
  (match Json.parse (deep Json.default_max_depth) with
  | Ok _ -> ()
  | Error msg ->
      Alcotest.failf "rejected input at the default depth bound: %s" msg);
  (match Json.parse (deep (Json.default_max_depth + 1)) with
  | Ok _ -> Alcotest.fail "accepted input one past the depth bound"
  | Error _ -> ());
  (* the classic parser bomb: a clean error, not Stack_overflow *)
  (match Json.parse (String.make 10_000 '[') with
  | Ok _ -> Alcotest.fail "accepted the 10k-deep bomb"
  | Error _ -> ());
  (* objects count toward the same bound *)
  (match Json.parse ~max_depth:2 {|{"a":{"b":1}}|} with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "rejected depth-2 object: %s" msg);
  (match Json.parse ~max_depth:2 {|{"a":{"b":{"c":1}}}|} with
  | Ok _ -> Alcotest.fail "accepted an object past ~max_depth:2"
  | Error _ -> ());
  (* override in both directions *)
  (match Json.parse ~max_depth:2 "[[1]]" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "rejected [[1]] at ~max_depth:2: %s" msg);
  (match Json.parse ~max_depth:2 "[[[1]]]" with
  | Ok _ -> Alcotest.fail "accepted [[[1]]] at ~max_depth:2"
  | Error _ -> ());
  (match
     Json.parse
       ~max_depth:(Json.default_max_depth + 2)
       (deep (Json.default_max_depth + 1))
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "rejected under a raised bound: %s" msg);
  Alcotest.check_raises "max_depth < 1 is a caller error"
    (Invalid_argument "Json.parse_exn: max_depth must be >= 1") (fun () ->
      ignore (Json.parse_exn ~max_depth:0 "1"))

(* ---- qcheck properties ---- *)

let prop_clamp_inside =
  QCheck.Test.make ~name:"clamp always lands inside the interval" ~count:500
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 100.) float)
    (fun (a, b, x) ->
      let lo = Float.min a b and hi = Float.max a b in
      let c = Float_cmp.clamp ~lo ~hi x in
      c >= lo && c <= hi)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range (-50.) 50.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let a = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile a ~p:lo <= Stats.percentile a ~p:hi +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
    (fun xs ->
      QCheck.assume (xs <> []);
      let a = Array.of_list xs in
      let lo, hi = Stats.min_max a in
      let m = Stats.mean a in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic streams" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy is independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split is independent" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Slow test_rng_float_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean of empty raises" `Quick test_mean_empty;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "variance singleton" `Quick test_variance_singleton;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric mean rejects" `Quick
            test_geometric_mean_rejects_nonpositive;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
        ] );
      ( "float_cmp",
        [
          Alcotest.test_case "approx basics" `Quick test_approx_basic;
          Alcotest.test_case "approx nan" `Quick test_approx_nan;
          Alcotest.test_case "approx arrays" `Quick test_approx_array;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
      ( "table_fmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "wide rows rejected" `Quick test_table_rejects_wide_rows;
          Alcotest.test_case "float cells" `Quick test_cell_of_float;
        ] );
      ( "json",
        Alcotest.test_case "malformed inputs rejected" `Quick
          test_json_rejects_malformed
        :: Alcotest.test_case "emit examples" `Quick test_json_emit_examples
        :: Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pairs
        :: Alcotest.test_case "nesting depth limit" `Quick
             test_json_depth_limit
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_json_roundtrip; prop_json_emit_stable;
               prop_json_surrogate_escape_equiv; prop_json_utf8_roundtrip;
               prop_json_float_lit_matches_printf;
             ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_clamp_inside; prop_percentile_monotone; prop_mean_between_min_max ]
      );
    ]
