open Qturbo_pauli

(* Exact float rendering: the raw IEEE bits in hex.  Injective on bit
   patterns (so distinct NaN payloads and -0.0/0.0 stay distinct, which
   [%h] would conflate) and an order of magnitude cheaper than a
   [Printf.sprintf] round-trip — this runs for every constant of every
   channel on each plan-key derivation. *)
let hex_digits = "0123456789abcdef"

let add_float buf f =
  let bits = Int64.bits_of_float f in
  if Int64.equal bits 0L then Buffer.add_char buf '0'
  else begin
    let started = ref false in
    for i = 15 downto 0 do
      let nib =
        Int64.to_int (Int64.logand (Int64.shift_right_logical bits (i * 4)) 0xFL)
      in
      if nib <> 0 then started := true;
      if !started then Buffer.add_char buf hex_digits.[nib]
    done
  end

(* Decimal digits straight into the buffer, spelled as [string_of_int]
   spells them ('-' first for a negative, [min_int] included), without
   its call into the C formatter and the string it allocates.  The
   digits come off the non-positive value: [-min_int] overflows. *)
let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))
  in
  digits (if n > 0 then -n else n)

(* Exact structural rendering of an amplitude expression.  Constants are
   printed as hex floats so two expressions that differ only in a
   constant's low bits never collide; the constructors are tagged so
   [Add (a, b)] and [Mul (a, b)] render differently. *)
let rec add_expr buf (e : Expr.t) =
  match e with
  | Expr.Const c ->
      Buffer.add_char buf 'c';
      add_float buf c
  | Expr.Var v ->
      Buffer.add_char buf 'v';
      add_int buf v
  | Expr.Neg a ->
      Buffer.add_string buf "n(";
      add_expr buf a;
      Buffer.add_char buf ')'
  | Expr.Add (a, b) -> add_binop buf "+" a b
  | Expr.Sub (a, b) -> add_binop buf "-" a b
  | Expr.Mul (a, b) -> add_binop buf "*" a b
  | Expr.Div (a, b) -> add_binop buf "/" a b
  | Expr.Pow_int (a, k) ->
      Buffer.add_char buf 'p';
      add_int buf k;
      Buffer.add_char buf '(';
      add_expr buf a;
      Buffer.add_char buf ')'
  | Expr.Sin a ->
      Buffer.add_string buf "s(";
      add_expr buf a;
      Buffer.add_char buf ')'
  | Expr.Cos a ->
      Buffer.add_string buf "k(";
      add_expr buf a;
      Buffer.add_char buf ')'

and add_binop buf op a b =
  Buffer.add_char buf '(';
  add_expr buf a;
  Buffer.add_string buf op;
  add_expr buf b;
  Buffer.add_char buf ')'

let add_hint buf (h : Instruction.solver_hint) =
  match h with
  | Instruction.Hint_linear { var; slope } ->
      Buffer.add_char buf 'L';
      add_int buf var;
      Buffer.add_char buf ':';
      add_float buf slope
  | Instruction.Hint_polar_cos { amp; phase; scale } ->
      Buffer.add_char buf 'C';
      add_int buf amp;
      Buffer.add_char buf ',';
      add_int buf phase;
      Buffer.add_char buf ':';
      add_float buf scale
  | Instruction.Hint_polar_sin { amp; phase; scale } ->
      Buffer.add_char buf 'S';
      add_int buf amp;
      Buffer.add_char buf ',';
      add_int buf phase;
      Buffer.add_char buf ':';
      add_float buf scale
  | Instruction.Hint_fixed -> Buffer.add_char buf 'F'
  | Instruction.Hint_generic -> Buffer.add_char buf 'G'

let add_variable buf (v : Variable.t) =
  Buffer.add_char buf '|';
  add_int buf v.Variable.id;
  Buffer.add_char buf ' ';
  Buffer.add_char buf
    (match v.Variable.kind with
    | Variable.Runtime_fixed -> 'f'
    | Variable.Runtime_dynamic -> 'd');
  Buffer.add_char buf ' ';
  add_float buf v.Variable.bound.Qturbo_optim.Bounds.lo;
  Buffer.add_char buf ' ';
  add_float buf v.Variable.bound.Qturbo_optim.Bounds.hi;
  Buffer.add_char buf ' ';
  add_float buf v.Variable.init

(* The emitted channels do not determine the cutoff: two radii that keep
   the same pairs emit identical ones, yet the analyzer reports the
   applied radius and the dropped weight (QT029). *)
let add_truncation buf (tr : Aais.truncation) =
  Buffer.add_string buf "#cut ";
  add_float buf tr.Aais.radius;
  Buffer.add_char buf ' ';
  add_int buf tr.Aais.kept_pairs;
  Buffer.add_char buf ' ';
  add_int buf tr.Aais.dropped_pairs;
  Buffer.add_char buf ' ';
  add_float buf tr.Aais.dropped_l1;
  Buffer.add_char buf ' ';
  add_float buf tr.Aais.max_dropped

(* sparse site:op rendering — Pauli strings are low-weight, so this is
   far shorter (and cheaper) than the dense spelling, and the ascending
   (site, op) list is just as injective *)
let add_pstring buf s =
  Pauli_string.iter
    (fun site op ->
      add_int buf site;
      Buffer.add_char buf
        (match op with
        | Pauli.I -> 'I'
        | Pauli.X -> 'X'
        | Pauli.Y -> 'Y'
        | Pauli.Z -> 'Z'))
    s

let add_channel buf (c : Instruction.channel) =
  Buffer.add_char buf '|';
  add_int buf c.Instruction.cid;
  Buffer.add_char buf ' ';
  add_expr buf c.Instruction.expr;
  Buffer.add_char buf ' ';
  add_hint buf c.Instruction.hint;
  List.iter
    (fun { Instruction.pstring; coeff } ->
      Buffer.add_char buf ';';
      add_pstring buf pstring;
      Buffer.add_char buf ':';
      add_float buf coeff)
    c.Instruction.effects

let render (aais : Aais.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf aais.Aais.name;
  Buffer.add_char buf '#';
  add_int buf aais.Aais.n_qubits;
  Buffer.add_char buf '#';
  Buffer.add_string buf aais.Aais.fingerprint;
  Option.iter (add_truncation buf) aais.Aais.truncation;
  Array.iter (add_variable buf) (Aais.variables aais);
  Buffer.add_string buf "##";
  Array.iter (add_channel buf) (Aais.channels aais);
  Buffer.contents buf

let of_aais aais = (Aais.memo_key aais ~render).Aais.text
let digest aais = (Aais.memo_key aais ~render).Aais.digest
let same_device a b = a == b || String.equal (of_aais a) (of_aais b)

let support_of_target target =
  List.filter
    (fun s -> not (Pauli_string.is_identity s))
    (Pauli_sum.support target)

let of_support support =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      add_pstring buf s;
      Buffer.add_char buf ',')
    support;
  Buffer.contents buf

(* The inverse of [add_pstring]: a run of (decimal site, op letter)
   pairs. *)
let pstring_of_sparse text =
  let ib = Scanf.Scanning.from_string text in
  let rec pairs acc =
    if Scanf.Scanning.end_of_input ib then Pauli_string.of_list (List.rev acc)
    else
      Scanf.bscanf ib "%u%c" (fun site c ->
          match Pauli.op_of_char c with
          | Some ((Pauli.X | Pauli.Y | Pauli.Z) as op) ->
              pairs ((site, op) :: acc)
          | Some Pauli.I | None -> invalid_arg "Shape.support_of_rendering")
  in
  pairs []

let support_of_rendering text =
  match
    String.split_on_char ',' text
    |> List.filter (fun s -> s <> "")
    |> List.map pstring_of_sparse
  with
  | support -> Some support
  | exception
      (Invalid_argument _ | Failure _ | Scanf.Scan_failure _ | End_of_file) ->
      None

let key ~aais ~support = of_aais aais ^ "@@" ^ of_support support
