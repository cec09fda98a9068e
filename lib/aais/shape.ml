open Qturbo_pauli

(* Exact float rendering: the raw IEEE bits in hex, leading zeros
   dropped ([0] for +0.0).  Injective on bit patterns (so distinct NaN
   payloads and -0.0/0.0 stay distinct, which [%h] would conflate) and
   an order of magnitude cheaper than a [Printf.sprintf] round-trip —
   this runs for every constant of every variable and channel on each
   plan-key derivation.  All sixteen digits go into [digits], a 16-byte
   scratch, two per byte from a table, taken from the two 32-bit halves
   of the bits (an [int] holds either unboxed); the significant ones are
   added in one call. *)
let hex_pairs =
  String.init 512 (fun i ->
      "0123456789abcdef".[(if i land 1 = 0 then i lsr 5 else i lsr 1) land 15])

let[@inline] put_byte digits pos byte =
  let k = (byte land 0xff) lsl 1 in
  Bytes.unsafe_set digits pos (String.unsafe_get hex_pairs k);
  Bytes.unsafe_set digits (pos + 1) (String.unsafe_get hex_pairs (k + 1))

let rec hex_length v n = if v = 0 then n else hex_length (v lsr 4) (n + 1)

let add_float buf digits f =
  let bits = Int64.bits_of_float f in
  if Int64.equal bits 0L then Buffer.add_char buf '0'
  else begin
    let hi = Int64.to_int (Int64.shift_right_logical bits 32)
    and lo = Int64.to_int bits land 0xffff_ffff in
    put_byte digits 0 (hi lsr 24);
    put_byte digits 2 (hi lsr 16);
    put_byte digits 4 (hi lsr 8);
    put_byte digits 6 hi;
    put_byte digits 8 (lo lsr 24);
    put_byte digits 10 (lo lsr 16);
    put_byte digits 12 (lo lsr 8);
    put_byte digits 14 lo;
    let n = if hi <> 0 then hex_length hi 8 else hex_length lo 0 in
    Buffer.add_subbytes buf digits (16 - n) n
  end

(* Decimal digits straight into the buffer, spelled as [string_of_int]
   spells them ('-' first for a negative, [min_int] included), without
   its call into the C formatter and the string it allocates.  The
   digits come off the non-positive value: [-min_int] overflows. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_digits buf (if n > 0 then -n else n)

(* A template's rendering cut at its variable ids: [lits.(0)], then for
   each occurrence [i] the id its local variable [slots.(i)] stands for
   and [lits.(i + 1)].  Splicing an instance's ids in gives exactly the
   rendering of the instance expression. *)
type spliced = { lits : string array; slots : int array }

(* Exact structural rendering of an amplitude expression.  Constants are
   printed as hex floats so two expressions that differ only in a
   constant's low bits never collide; the constructors are tagged so
   [Add (a, b)] and [Mul (a, b)] render differently.  A variable is
   ['v'] and its id: here a cut, at which [add_spliced] writes the id. *)
let spliced_of_template digits tpl =
  let buf = Buffer.create 64 and cuts = ref [] in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Const c ->
        Buffer.add_char buf 'c';
        add_float buf digits c
    | Expr.Var l ->
        Buffer.add_char buf 'v';
        cuts := (Buffer.length buf, l) :: !cuts
    | Expr.Neg a -> wrap "n(" a
    | Expr.Add (a, b) -> binop "+" a b
    | Expr.Sub (a, b) -> binop "-" a b
    | Expr.Mul (a, b) -> binop "*" a b
    | Expr.Div (a, b) -> binop "/" a b
    | Expr.Pow_int (a, k) ->
        Buffer.add_char buf 'p';
        add_int buf k;
        wrap "(" a
    | Expr.Sin a -> wrap "s(" a
    | Expr.Cos a -> wrap "k(" a
  and wrap opening a =
    Buffer.add_string buf opening;
    go a;
    Buffer.add_char buf ')'
  and binop op a b =
    Buffer.add_char buf '(';
    go a;
    Buffer.add_string buf op;
    go b;
    Buffer.add_char buf ')'
  in
  go (Expr.template_expr tpl);
  let text = Buffer.contents buf in
  let cuts = Array.of_list (List.rev !cuts) in
  let n = Array.length cuts in
  let start i = if i = 0 then 0 else fst cuts.(i - 1) in
  let stop i = if i = n then String.length text else fst cuts.(i) in
  {
    lits =
      Array.init (n + 1) (fun i -> String.sub text (start i) (stop i - start i));
    slots = Array.map snd cuts;
  }

let add_spliced buf { lits; slots } ids =
  Buffer.add_string buf lits.(0);
  for i = 0 to Array.length slots - 1 do
    add_int buf ids.(slots.(i));
    Buffer.add_string buf lits.(i + 1)
  done

let add_hint buf digits (h : Instruction.solver_hint) =
  match h with
  | Instruction.Hint_linear { var; slope } ->
      Buffer.add_char buf 'L';
      add_int buf var;
      Buffer.add_char buf ':';
      add_float buf digits slope
  | Instruction.Hint_polar_cos { amp; phase; scale } ->
      Buffer.add_char buf 'C';
      add_int buf amp;
      Buffer.add_char buf ',';
      add_int buf phase;
      Buffer.add_char buf ':';
      add_float buf digits scale
  | Instruction.Hint_polar_sin { amp; phase; scale } ->
      Buffer.add_char buf 'S';
      add_int buf amp;
      Buffer.add_char buf ',';
      add_int buf phase;
      Buffer.add_char buf ':';
      add_float buf digits scale
  | Instruction.Hint_fixed -> Buffer.add_char buf 'F'
  | Instruction.Hint_generic -> Buffer.add_char buf 'G'

let add_variable buf digits (v : Variable.t) =
  Buffer.add_char buf '|';
  add_int buf v.Variable.id;
  Buffer.add_char buf ' ';
  Buffer.add_char buf
    (match v.Variable.kind with
    | Variable.Runtime_fixed -> 'f'
    | Variable.Runtime_dynamic -> 'd');
  Buffer.add_char buf ' ';
  add_float buf digits v.Variable.bound.Qturbo_optim.Bounds.lo;
  Buffer.add_char buf ' ';
  add_float buf digits v.Variable.bound.Qturbo_optim.Bounds.hi;
  Buffer.add_char buf ' ';
  add_float buf digits v.Variable.init

(* The emitted channels do not determine the cutoff: two radii that keep
   the same pairs emit identical ones, yet the analyzer reports the
   applied radius and the dropped weight (QT029). *)
let add_truncation buf digits (tr : Aais.truncation) =
  Buffer.add_string buf "#cut ";
  add_float buf digits tr.Aais.radius;
  Buffer.add_char buf ' ';
  add_int buf tr.Aais.kept_pairs;
  Buffer.add_char buf ' ';
  add_int buf tr.Aais.dropped_pairs;
  Buffer.add_char buf ' ';
  add_float buf digits tr.Aais.dropped_l1;
  Buffer.add_char buf ' ';
  add_float buf digits tr.Aais.max_dropped

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

let add_channel buf digits spliced (c : Instruction.channel) =
  Buffer.add_char buf '|';
  add_int buf c.Instruction.cid;
  Buffer.add_char buf ' ';
  add_spliced buf spliced c.Instruction.ids;
  Buffer.add_char buf ' ';
  add_hint buf digits c.Instruction.hint;
  List.iter
    (fun { Instruction.pstring; coeff } ->
      Buffer.add_char buf ';';
      add_pstring buf pstring;
      Buffer.add_char buf ':';
      add_float buf digits coeff)
    c.Instruction.effects

(* Each template is cut once per render, then spliced per channel.  The
   buffer starts at about the rendering's size (a van-der-Waals pair
   channel renders to ~130 bytes, a variable to ~60): growing it by
   doubling copies the key again and again on large devices. *)
let render (aais : Aais.t) =
  let variables = Aais.variables aais and channels = Aais.channels aais in
  let buf =
    Buffer.create
      (256 + (64 * Array.length variables) + (128 * Array.length channels))
  and digits = Bytes.create 16 in
  let templates = Expr.Template_memo.create () in
  Buffer.add_string buf aais.Aais.name;
  Buffer.add_char buf '#';
  add_int buf aais.Aais.n_qubits;
  Buffer.add_char buf '#';
  Buffer.add_string buf aais.Aais.fingerprint;
  Option.iter (add_truncation buf digits) aais.Aais.truncation;
  Array.iter (add_variable buf digits) variables;
  Buffer.add_string buf "##";
  Array.iter
    (fun (c : Instruction.channel) ->
      let tpl = c.Instruction.template in
      let spliced =
        Expr.Template_memo.find_or_add templates tpl (fun () ->
            spliced_of_template digits tpl)
      in
      add_channel buf digits spliced c)
    channels;
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

let key ~aais ~support = of_aais aais ^ "@@" ^ of_support support
