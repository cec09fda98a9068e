(** Plan-invariant linter (static analyzer stage two, pass B).

    [Qturbo_core.Compile_plan] artifacts are replayed from an LRU cache
    across compiles, sweeps and time-dependent segments, and the plan
    store deserializes them from disk.  This pass
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
       component's arity — a const classification over a component with
       variables, a linear or polar classification naming the wrong
       number of variables, or a classification naming variables or
       channels outside its component.}}

    [QT027] and [QT028] are retired and unassigned.

    All checks are pure structural scans; linting a plan costs
    microseconds next to its build. *)

type classification_view = {
  name : string;
      (** ["const" | "linear" | "polar" | "fixed" | "generic"] *)
  class_vars : int list;
      (** variable ids the classification names (linear's driver, polar's
          amplitude and phase, the generic path's variables); empty for
          const and fixed *)
  class_channels : int list;
      (** channel cids the classification names (const values, slope /
          cos / sin entries); empty for generic and fixed *)
}

type view = {
  support : Qturbo_pauli.Pauli_string.t list;  (** canonical support *)
  rows : Qturbo_pauli.Pauli_string.t array;  (** term-index rows, in order *)
  cells : (int * float) list array;  (** per-row [(channel, coeff)] *)
  csr : Qturbo_linalg.Csr.t;
      (** the same matrix as the linear solve and the error metrics
          read it *)
  n_channels : int;
  n_vars : int;
  channel_terms : Qturbo_pauli.Pauli_string.t list;
      (** every non-identity term some channel can produce *)
  components : (Structure.comp * classification_view) list;
      (** one per prepared solver: its component and its
          classification *)
}

val check : view -> Diagnostic.t list
(** Returns [[]] for a sound plan, error diagnostics otherwise. *)
