(** Plan-invariant linter (static analyzer stage two, pass B).

    [Qturbo_core.Compile_plan] artifacts are replayed from an LRU cache
    across compiles, sweeps and time-dependent segments — and the
    roadmap's plan store will deserialize them from disk.  This pass
    checks the cross-stage invariants that make a plan trustworthy,
    operating (like {!Structure}) on a generic view so this library
    stays independent of [qturbo.core], which converts its own types and
    calls {!check}:

    {ul
    {- [QT023] (error): the term index does not exactly cover the
       canonical support — a support term without a row, rows not
       leading with the support in order, a duplicate row, or a row that
       is neither a support term nor producible by any channel;}
    {- [QT024] (error): the skeleton is inconsistent — the cell array
       length differs from the row count, a cell references a channel id
       outside [0, n_channels), a row names a channel twice, or the CSR
       the solve reads differs from [Csr.of_row_lists] of the cells;}
    {- [QT025] (error): the locality components fail to partition the
       channel set — a channel in no component or in several, a
       duplicated or out-of-range variable id, or a duplicate component
       id;}
    {- [QT026] (error): a classification is inconsistent with its
       component's arity — classification/component count mismatch,
       a const classification over a component with variables, or a
       linear/polar classification naming variables or channels outside
       its component;}
    {- [QT027] (error): the structural [Shape] key does not round-trip —
       re-deriving the key from the plan's own device and support gives
       a different string, or the support section of the stored key does
       not parse back to the plan's support;}
    {- [QT028] (error): the prepared solver contexts disagree with the
       classifications — count mismatch, or a prepared context whose
       own classification differs from the plan's.}}

    All checks are pure structural scans; linting a plan costs
    microseconds next to its build. *)

type classification_view = {
  name : string;
      (** ["const" | "linear" | "polar" | "fixed" | "generic"] *)
  class_vars : int list;
      (** variable ids the classification names (linear's driver, polar's
          amplitude and phase); empty for the structureless kinds *)
  class_channels : int list;
      (** channel cids the classification names (slope / cos / sin
          entries); empty for the structureless kinds *)
}

type view = {
  key : string;  (** the stored structural cache key *)
  rederived_key : string list;
      (** the key rebuilt from the plan's own parts, as the pieces whose
          concatenation it is; compared with [key] without joining them *)
  support : Qturbo_pauli.Pauli_string.t list;  (** canonical support *)
  key_support : Qturbo_pauli.Pauli_string.t list option;
      (** the support section of [key], parsed back; [None] when it does
          not parse *)
  rows : Qturbo_pauli.Pauli_string.t array;  (** term-index rows, in order *)
  cells : (int * float) list array;  (** per-row [(channel, coeff)] *)
  csr : Qturbo_linalg.Csr.t;
      (** the same matrix as the linear solve and the error metrics
          read it *)
  n_channels : int;
  n_vars : int;
  channel_terms : Qturbo_pauli.Pauli_string.t list;
      (** every non-identity term some channel can produce *)
  comps : Structure.comp list;
  classifications : classification_view list;  (** one per component *)
  prepared_names : string list;
      (** the classification each prepared solver context reports for
          itself, rendered like {!classification_view.name} *)
}

val check : view -> Diagnostic.t list
(** Returns [[]] for a sound plan, error diagnostics otherwise. *)
