(** Compressed sparse row matrices.

    The global linear system of the compiler has O(N²) rows for an N-atom
    Rydberg device but only a handful of nonzeros per row; CSR keeps its
    assembly and matrix–vector products linear in the number of nonzeros. *)

type t

type triplet = { row : int; col : int; value : float }

val of_triplets : rows:int -> cols:int -> triplet list -> t
(** Build from coordinate entries; duplicate [(row, col)] entries are
    summed.  Entries out of range raise [Invalid_argument]. *)

val of_row_lists : cols:int -> (int * float) list array -> t
(** Pack per-row [(col, value)] lists {e verbatim}: entry order within a
    row is preserved, duplicates are kept, explicit zeros are stored.
    [row_entries] on the result returns exactly the input lists — the
    lossless bridge from the historical list-of-cells representation.
    Out-of-range columns raise [Invalid_argument]. *)

val of_pattern : cols:int -> row_ptr:int array -> col_idx:int array -> t
(** A zero matrix over a kept sparsity pattern, to be filled through
    {!values}: only the value array is allocated, [row_ptr] and
    [col_idx] are shared, not copied, so the caller must not mutate
    them.  [row_ptr] runs from 0 up to [Array.length col_idx] without
    decreasing, and every column [c] has [0 <= c < cols]; otherwise
    [Invalid_argument]. *)

val rows : t -> int

val cols : t -> int

val nnz : t -> int
(** Stored entries (explicit zeros created by cancellation are dropped). *)

val row_ptr : t -> int array
(** The live row-pointer array (length [rows + 1]); do not mutate. *)

val col_idx : t -> int array
(** The live column-index array (length [nnz]); do not mutate. *)

val values : t -> float array
(** The {e live} value array (length [nnz], parallel to [col_idx]).
    Callers owning the matrix may refill it in place — the sparse
    Jacobian slots of [Fixed_solver] rewrite it every iteration without
    reallocating the structure. *)

val col_sq_sums : t -> float array
(** Per-column sum of squared stored values — the diagonal of [AᵀA],
    computed in row-major stored order (deterministic summation). *)

val at_mul_self : t -> Mat.t
(** [AᵀA] as a dense [cols × cols] matrix, bitwise equal to
    [Mat.at_mul_self (to_dense t)]: the same upper-triangle accumulation
    row by row over ascending columns, exact zeros skipped, then
    mirrored — without materialising [t] densely.  Columns must be
    strictly ascending within each row; otherwise [Invalid_argument]. *)

val filter_cols : (int -> bool) -> t -> t
(** The stored entries whose column satisfies the predicate, in stored
    order; same dimensions.  O(nnz). *)

val repeated_col : t -> (int * int) option
(** The first [(row, col)] at which a row stores the same column twice,
    in row-major order; [None] when every row names each column at most
    once.  O(nnz). *)

val packs : t -> cols:int -> (int * float) list array -> bool
(** [packs t ~cols rows]: [t] is exactly [of_row_lists ~cols rows] — the
    same dimensions and the same stored entries in the same order, with
    bitwise-equal values — checked without building the packed copy.
    [false], never an exception, for a structurally damaged [t]. *)

val get : t -> int -> int -> float
(** Zero for non-stored entries; O(row nnz). *)

val row_entries : t -> int -> (int * float) list
(** Nonzeros of a row as [(col, value)] pairs, ascending columns. *)

val mul_vec : t -> Vec.t -> Vec.t

val mul_vec_t : t -> Vec.t -> Vec.t

val to_dense : t -> Mat.t

val of_dense : ?tol:float -> Mat.t -> t
(** Entries with [|x| <= tol] are dropped (default [0.]: keep all
    nonzeros). *)

val norm1 : t -> float
(** Induced L1 norm (max absolute column sum), matching {!Mat.norm1}. *)

val transpose : t -> t
