type op = I | X | Y | Z
type phase = P1 | Pi | Pm1 | Pmi

let phase_int = function P1 -> 0 | Pi -> 1 | Pm1 -> 2 | Pmi -> 3
let phase_of_int k =
  match ((k mod 4) + 4) mod 4 with
  | 0 -> P1
  | 1 -> Pi
  | 2 -> Pm1
  | _ -> Pmi

let phase_mul a b = phase_of_int (phase_int a + phase_int b)

let mul a b =
  match (a, b) with
  | I, o -> (P1, o)
  | o, I -> (P1, o)
  | X, X | Y, Y | Z, Z -> (P1, I)
  | X, Y -> (Pi, Z)
  | Y, X -> (Pmi, Z)
  | Y, Z -> (Pi, X)
  | Z, Y -> (Pmi, X)
  | Z, X -> (Pi, Y)
  | X, Z -> (Pmi, Y)

let commutes a b =
  match (a, b) with
  | I, _ | _, I -> true
  | X, X | Y, Y | Z, Z -> true
  | X, Y | Y, X | Y, Z | Z, Y | Z, X | X, Z -> false

let op_to_string = function I -> "I" | X -> "X" | Y -> "Y" | Z -> "Z"

let op_of_char = function
  | 'I' -> Some I
  | 'X' -> Some X
  | 'Y' -> Some Y
  | 'Z' -> Some Z
  | _ -> None

let op_int = function I -> 0 | X -> 1 | Y -> 2 | Z -> 3
let compare_op a b = Int.compare (op_int a) (op_int b)
let equal_op a b = op_int a = op_int b

let c re im = { Complex.re; im }

let matrix = function
  | I -> [| Complex.one; Complex.zero; Complex.zero; Complex.one |]
  | X -> [| Complex.zero; Complex.one; Complex.one; Complex.zero |]
  | Y -> [| Complex.zero; c 0.0 (-1.0); Complex.i; Complex.zero |]
  | Z -> [| Complex.one; Complex.zero; Complex.zero; c (-1.0) 0.0 |]
