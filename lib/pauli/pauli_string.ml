(* The non-identity sites as codes [site lsl 2 lor op] (X = 1, Y = 2,
   Z = 3), strictly ascending.  Each operator has exactly one such
   array, and comparing two codes orders them by site first and by op
   second, so [compare] is the lexicographic order of the arrays. *)
type t = int array

let op_code = function Pauli.I -> 0 | Pauli.X -> 1 | Pauli.Y -> 2 | Pauli.Z -> 3

let op_of_code c =
  match c land 3 with 1 -> Pauli.X | 2 -> Pauli.Y | 3 -> Pauli.Z | _ -> Pauli.I

let site_of_code c = c lsr 2

(* the largest site whose code does not overflow *)
let max_site_allowed = max_int lsr 2
let identity = [||]

let check_site fn site =
  if site < 0 then invalid_arg (fn ^ ": negative site");
  if site > max_site_allowed then invalid_arg (fn ^ ": site too large")

let sort_checked codes =
  Array.sort Int.compare codes;
  for k = 1 to Array.length codes - 1 do
    if site_of_code codes.(k) = site_of_code codes.(k - 1) then
      invalid_arg "Pauli_string.of_list: duplicate site"
  done;
  codes

(* Errors are reported in list order: a negative site raises unless a
   duplicate completed earlier in the list. *)
let of_list pairs =
  let codes = Array.make (List.length pairs) 0 in
  let count = ref 0 in
  List.iter
    (fun (site, op) ->
      if site < 0 || site > max_site_allowed then
        ignore (sort_checked (Array.sub codes 0 !count));
      check_site "Pauli_string.of_list" site;
      match op with
      | Pauli.I -> ()
      | Pauli.X | Pauli.Y | Pauli.Z ->
          codes.(!count) <- (site lsl 2) lor op_code op;
          incr count)
    pairs;
  sort_checked
    (if !count = Array.length codes then codes else Array.sub codes 0 !count)

let single i op =
  check_site "Pauli_string.of_list" i;
  match op with
  | Pauli.I -> identity
  | Pauli.X | Pauli.Y | Pauli.Z -> [| (i lsl 2) lor op_code op |]

let two i a j b =
  if i = j then invalid_arg "Pauli_string.two: equal sites";
  check_site "Pauli_string.of_list" i;
  check_site "Pauli_string.of_list" j;
  let ci = (i lsl 2) lor op_code a and cj = (j lsl 2) lor op_code b in
  match (a, b) with
  | Pauli.I, Pauli.I -> identity
  | _, Pauli.I -> [| ci |]
  | Pauli.I, _ -> [| cj |]
  | _ -> if i < j then [| ci; cj |] else [| cj; ci |]

let iter f t =
  for k = 0 to Array.length t - 1 do
    f (site_of_code t.(k)) (op_of_code t.(k))
  done

let to_list t =
  Array.fold_right (fun c acc -> (site_of_code c, op_of_code c) :: acc) t []

let op_at t i =
  match Array.find_opt (fun c -> site_of_code c = i) t with
  | Some c -> op_of_code c
  | None -> Pauli.I

let weight t = Array.length t
let support t = Array.fold_right (fun c acc -> site_of_code c :: acc) t []
let max_site t = match Array.length t with 0 -> -1 | n -> site_of_code t.(n - 1)
let is_identity t = Array.length t = 0

let mul a b =
  let phase = ref Pauli.P1 in
  let rec merge = function
    | [], l | l, [] -> l
    | ((sa, oa) :: ra as la), ((sb, ob) :: rb as lb) ->
        if sa < sb then (sa, oa) :: merge (ra, lb)
        else if sb < sa then (sb, ob) :: merge (la, rb)
        else
          let p, o = Pauli.mul oa ob in
          phase := Pauli.phase_mul !phase p;
          (sa, o) :: merge (ra, rb)
  in
  let merged = merge (to_list a, to_list b) in
  (!phase, of_list merged)

let commutes a b =
  Array.fold_left
    (fun even c ->
      if Pauli.commutes (op_of_code c) (op_at b (site_of_code c)) then even
      else not even)
    true a

(* Loops, not local recursive functions: a closure over the operands
   would be allocated on every call. *)
let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let k = ref 0 in
  while !k < n && a.(!k) = b.(!k) do
    incr k
  done;
  if !k < n then Int.compare a.(!k) b.(!k) else Int.compare la lb

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let k = ref 0 in
  while !k < n && a.(!k) = b.(!k) do
    incr k
  done;
  !k = n

(* [acc * 1_000_003 + site * 4 + op] over ascending sites.  A
   string-keyed [Hashtbl] iterates in the order this value fixes, and
   the plan linter reports its findings in that order, so the value
   must not change. *)
let hash t =
  let acc = ref 17 in
  for k = 0 to Array.length t - 1 do
    acc := (!acc * 1_000_003) + t.(k)
  done;
  !acc

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

let pp ppf t =
  if is_identity t then Format.fprintf ppf "I"
  else
    iter
      (fun site op -> Format.fprintf ppf "%s%d" (Pauli.op_to_string op) site)
      t
