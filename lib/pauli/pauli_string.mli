(** Multi-qubit Pauli strings, stored sparsely (identity sites omitted).

    A Pauli string such as [Z₁Z₂] is the array of codes
    [site lsl 2 lor op] (X = 1, Y = 2, Z = 3) of its non-identity sites
    in ascending site order, here [[|7; 11|]]; every operator has one
    such array.  It is the row key of the compiler's equation systems
    ("Hamiltonian terms" layer of paper Fig. 2); {!compare}, {!equal},
    {!hash} and {!iter} allocate nothing. *)

type t

val identity : t

val of_list : (int * Pauli.op) list -> t
(** Builds from [(site, op)] pairs; [I] entries are dropped; duplicate
    sites raise [Invalid_argument]; negative sites, and sites above
    [max_int lsr 2], raise [Invalid_argument]. *)

val single : int -> Pauli.op -> t
(** [single i op] is the one-site string [op_i]. *)

val two : int -> Pauli.op -> int -> Pauli.op -> t
(** [two i a j b] is [a_i · b_j]; requires [i <> j]. *)

val to_list : t -> (int * Pauli.op) list
(** Ascending site order; never contains [I]. *)

val iter : (int -> Pauli.op -> unit) -> t -> unit
(** [iter f s] calls [f site op] for each non-identity site, ascending;
    {!to_list} without the list. *)

val op_at : t -> int -> Pauli.op
(** [I] for unlisted sites. *)

val weight : t -> int
(** Number of non-identity sites. *)

val support : t -> int list
(** Sites carrying a non-identity operator, ascending. *)

val max_site : t -> int
(** Largest touched site; [-1] for the identity string. *)

val is_identity : t -> bool

val mul : t -> t -> Pauli.phase * t
(** Operator product with accumulated phase. *)

val commutes : t -> t -> bool
(** Strings commute iff they anticommute on an even number of sites. *)

val compare : t -> t -> int
(** Lexicographic over ascending [(site, op)] pairs, ops ordered
    [X < Y < Z]; a proper prefix sorts first.  Returns -1, 0 or 1. *)

val equal : t -> t -> bool

val hash : t -> int
(** [acc * 1_000_003 + site * 4 + op] folded over ascending sites from
    17, with [op] as in the codes above. *)

val of_string : string -> t
(** Parse a dense spelling like ["IZZ"] (site 0 leftmost).  Raises
    [Invalid_argument] on other characters. *)

val to_string : ?n:int -> t -> string
(** Dense spelling padded to [n] sites (default: [max_site + 1]). *)

val pp : Format.formatter -> t -> unit
(** Compact spelling like ["Z1Z2"] (["I"] for the identity). *)
