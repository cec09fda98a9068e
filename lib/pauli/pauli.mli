(** Single-qubit Pauli operators and their product table. *)

type op = I | X | Y | Z

type phase = P1 | Pi | Pm1 | Pmi
(** The fourth roots of unity [1, i, -1, -i] arising from Pauli products. *)

val mul : op -> op -> phase * op
(** [mul a b] is the product [a·b] as [(phase, op)]; e.g.
    [mul X Y = (Pi, Z)]. *)

val phase_mul : phase -> phase -> phase

val commutes : op -> op -> bool
(** Single-site commutation: true iff either operand is [I] or they are
    equal. *)

val op_to_string : op -> string

val op_of_char : char -> op option
(** Accepts ['I' 'X' 'Y' 'Z'] (upper case only). *)

val compare_op : op -> op -> int
(** Total order [I < X < Y < Z]. *)

val equal_op : op -> op -> bool

(** Dense 2x2 matrix of an operator, row major, for the quantum simulator. *)
val matrix : op -> Complex.t array
