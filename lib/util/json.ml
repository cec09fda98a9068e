type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

(* ---- emission ------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

(* [Printf.sprintf "%.17g"] interprets its format and then makes
   exactly this call; making it directly skips the interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no representation for nan/±inf ([%.17g] would print "nan",
   which strict parsers reject); emit [null] instead.  Everything the
   code base prints into a JSON number position must come through
   here. *)
let float_lit f = if Float.is_finite f then format_float "%.17g" f else "null"

(* Non-finite numbers have no JSON representation; [emit] maps them to
   [null] (same policy as [float_lit]), so [parse (emit v)] returns [v]
   with every non-finite [Number] replaced by [Null]. *)
let emit v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Number f -> Buffer.add_string b (float_lit f)
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Array items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            go item)
          items;
        Buffer.add_char b ']'
    | Object fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            go item)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---- strict recursive-descent parser -------------------------------- *)

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word v =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur ("invalid literal (expected " ^ word ^ ")")

let parse_hex4 cur =
  let code = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek cur with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "invalid \\u escape"
    in
    advance cur;
    code := (!code * 16) + d
  done;
  !code

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some c when Char.code c < 0x20 -> fail cur "raw control character in string"
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> advance cur; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance cur; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance cur; Buffer.add_char b '/'; go ()
        | Some 'b' -> advance cur; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char b '\012'; go ()
        | Some 'n' -> advance cur; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance cur; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance cur; Buffer.add_char b '\t'; go ()
        | Some 'u' ->
            advance cur;
            let code = parse_hex4 cur in
            (* RFC 8259 §7: astral-plane characters are encoded as a
               UTF-16 surrogate pair of two \uXXXX escapes.  A high
               surrogate must be immediately followed by an escaped low
               surrogate; anything else (lone high, lone low, high+BMP)
               is malformed. *)
            let scalar =
              if code >= 0xD800 && code <= 0xDBFF then begin
                (match peek cur with
                | Some '\\' -> advance cur
                | _ -> fail cur "unpaired high surrogate in \\u escape");
                (match peek cur with
                | Some 'u' -> advance cur
                | _ -> fail cur "unpaired high surrogate in \\u escape");
                let low = parse_hex4 cur in
                if low < 0xDC00 || low > 0xDFFF then
                  fail cur "unpaired high surrogate in \\u escape";
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              end
              else if code >= 0xDC00 && code <= 0xDFFF then
                fail cur "unpaired low surrogate in \\u escape"
              else code
            in
            Buffer.add_utf_8_uchar b (Uchar.of_int scalar);
            go ()
        | _ -> fail cur "invalid escape sequence")
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let digit () =
    match peek cur with
    | Some ('0' .. '9') ->
        advance cur;
        true
    | _ -> false
  in
  let digits1 who = if not (digit ()) then fail cur who else while digit () do () done in
  (match peek cur with Some '-' -> advance cur | _ -> ());
  (* int part: 0, or [1-9][0-9]* — leading zeros are not JSON *)
  (match peek cur with
  | Some '0' -> advance cur
  | Some ('1' .. '9') -> while digit () do () done
  | _ -> fail cur "invalid number");
  (match peek cur with
  | Some '.' ->
      advance cur;
      digits1 "digits required after decimal point"
  | _ -> ());
  (match peek cur with
  | Some ('e' | 'E') ->
      advance cur;
      (match peek cur with Some ('+' | '-') -> advance cur | _ -> ());
      digits1 "digits required in exponent"
  | _ -> ());
  Number (float_of_string (String.sub cur.text start (cur.pos - start)))

(* The parser recurses once per nested container, so hostile input like
   500 KB of "[[[[…" would otherwise die with [Stack_overflow].  The
   depth bound turns that into a clean {!Parse_error}; 512 is far above
   anything the code base emits while keeping stack use trivial. *)
let default_max_depth = 512

let rec parse_value cur depth max_depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
      if depth >= max_depth then fail cur "nesting depth limit exceeded";
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        Array []
      end
      else begin
        let rec items acc =
          let v = parse_value cur (depth + 1) max_depth in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> fail cur "expected ',' or ']'"
        in
        Array (items [])
      end
  | Some '{' ->
      if depth >= max_depth then fail cur "nesting depth limit exceeded";
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Object []
      end
      else begin
        let field () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          (k, parse_value cur (depth + 1) max_depth)
        in
        let rec fields acc =
          let f = field () in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              fields (f :: acc)
          | Some '}' ->
              advance cur;
              List.rev (f :: acc)
          | _ -> fail cur "expected ',' or '}'"
        in
        Object (fields [])
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character '%c'" c)

let parse_exn ?(max_depth = default_max_depth) text =
  if max_depth < 1 then invalid_arg "Json.parse_exn: max_depth must be >= 1";
  let cur = { text; pos = 0 } in
  let v = parse_value cur 0 max_depth in
  skip_ws cur;
  if cur.pos <> String.length text then fail cur "trailing garbage after value";
  v

let parse ?max_depth text =
  match parse_exn ?max_depth text with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ------------------------------------------------------- *)

let member name = function
  | Object fields -> List.assoc_opt name fields
  | _ -> None

let member_exn name v =
  match member name v with
  | Some x -> x
  | None -> raise (Parse_error ("missing member " ^ name))
