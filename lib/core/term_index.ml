open Qturbo_pauli
open Qturbo_aais

(* Keyed by [Pauli_string.hash]/[equal], which read the content: the
   polymorphic hash would see the site map's tree shape, and two equal
   strings built in different insertion orders can differ in shape. *)
module Term_tbl = Hashtbl.Make (Pauli_string)

type t = { by_string : int Term_tbl.t; by_row : Pauli_string.t array }

let build_of_support ~channels ~support =
  let by_string =
    Term_tbl.create (List.length support + (3 * Array.length channels))
  in
  let rev = ref [] and count = ref 0 in
  let add s =
    if not (Pauli_string.is_identity s || Term_tbl.mem by_string s) then begin
      Term_tbl.add by_string s !count;
      rev := s :: !rev;
      incr count
    end
  in
  List.iter add support;
  Array.iter
    (fun c -> List.iter (fun (s, _) -> add s) (Instruction.effect_terms c))
    channels;
  { by_string; by_row = Array.of_list (List.rev !rev) }

let build ~channels ~target =
  build_of_support ~channels ~support:(List.map fst (Pauli_sum.terms target))

let count t = Array.length t.by_row
let row_of t s = Term_tbl.find_opt t.by_string s

let string_of t i =
  if i < 0 || i >= count t then invalid_arg "Term_index.string_of: out of range";
  t.by_row.(i)

let strings t = Array.copy t.by_row
