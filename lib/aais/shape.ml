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

(* Anchored site coordinates are additionally snapped to a 1e-6 um grid
   (a picometer — far below any physically meaningful layout
   difference): the anchoring subtraction [(x +. o) -. o] is not exact
   in floating point, so without the snap a rigidly-translated device
   would render ulp-different coordinates and miss the shared plan.
   Non-site variables keep the exact [%h] rendering. *)
let quantize x = Float.round (x *. 1e6) /. 1e6

let add_variable buf ~site ~offset (v : Variable.t) =
  let canon x = if site then quantize (x -. offset) else x in
  Buffer.add_char buf '|';
  add_int buf v.Variable.id;
  Buffer.add_char buf ' ';
  Buffer.add_char buf
    (match v.Variable.kind with
    | Variable.Runtime_fixed -> 'f'
    | Variable.Runtime_dynamic -> 'd');
  Buffer.add_char buf ' ';
  add_float buf (canon v.Variable.bound.Qturbo_optim.Bounds.lo);
  Buffer.add_char buf ' ';
  add_float buf (canon v.Variable.bound.Qturbo_optim.Bounds.hi);
  Buffer.add_char buf ' ';
  add_float buf (canon v.Variable.init)

(* Canonicalize the device geometry: subtract the first site's initial
   coordinates from every site-coordinate variable before rendering, so
   rigidly-translated layouts produce the same key.  Sound because the
   compiler only ever consumes coordinate {e differences} (van der
   Waals interactions, pairwise-distance feasibility checks), so
   translated devices are genuinely plan-interchangeable.  Rotation is
   out of scope.  Variables that are not site coordinates get a zero
   offset. *)
let coordinate_offsets (aais : Aais.t) =
  let n_vars = Array.length (Aais.variables aais) in
  let offsets = Array.make n_vars 0.0 in
  let sites = aais.Aais.sites in
  if Array.length sites > 0 then begin
    let vars = Aais.variables aais in
    let x0, y0 = sites.(0) in
    let ox = vars.(x0).Variable.init in
    let oy =
      match y0 with Some y -> vars.(y).Variable.init | None -> 0.0
    in
    Array.iter
      (fun (x, y) ->
        offsets.(x) <- ox;
        match y with Some y -> offsets.(y) <- oy | None -> ())
      sites
  end;
  offsets

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
  let offsets = coordinate_offsets aais in
  let site = Array.make (Array.length (Aais.variables aais)) false in
  Array.iter
    (fun (x, y) ->
      site.(x) <- true;
      match y with Some y -> site.(y) <- true | None -> ())
    aais.Aais.sites;
  Array.iter
    (fun (v : Variable.t) ->
      add_variable buf ~site:site.(v.Variable.id)
        ~offset:offsets.(v.Variable.id) v)
    (Aais.variables aais);
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
