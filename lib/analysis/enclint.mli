(** EncLint: solver-free static analysis of a constructed CEGIS
    encoding.

    The encoding layer ([Pmi_core.Encoding]) describes itself through a
    {!view} — rows, activation literals, recorded cardinality networks,
    frozen assumptions — and {!analyze} cross-checks that
    description against the solver's problem-clause database without
    ever calling [solve]:

    {b Structural} — [dead-var] (allocated but unconstrained variables),
    [duplicate-clause], [tautology], [missing-guard] (a guarded row's
    network clause without its [¬act] literal), [unguarded-row] (a live
    row with no activation in a guarded encoding), [retired-reachable]
    (retired-row literals in live, non-root-satisfied clauses, or a
    retirement that never forced [¬act]), [frozen-unused].

    {b Semantic} — [card-bound]/[card-guard]/[bound-mismatch]: every
    recorded [Card] network with at most 12 inputs is verified against
    its declared bound by exhaustive enumeration of the input cone (a
    complete mini-DPLL decides each assignment over the recorded
    clauses, both with the guard active and, for vacuity, satisfied).

    Diagnostics use the shared {!Pmi_diag.Diag} schema: [Error] means the
    encoding is wrong (a solver verdict on it cannot be trusted),
    [Warning] means waste. *)

type severity = Pmi_diag.Diag.severity =
  | Error
  | Warning

type row = {
  subject : string;            (** e.g. the scheme name *)
  vars : int list;             (** the row's own/shared/selector variables *)
  act : int;                   (** activation variable, [-1] if unguarded *)
  live : bool;                 (** [false] once retired *)
  networks : (int * Pmi_smt.Card.network) list;
      (** recorded cardinality networks with the bound the encoding
          declared when it built each *)
}

type view = {
  rows : row list;
  frozen : Pmi_smt.Lit.t list;         (** frozen assumption literals *)
}

val empty_view : view
(** No rows and no frozen literals — [analyze] then runs the pure
    CNF-level checks only. *)

val analyze : Pmi_smt.Sat.t -> view -> Pmi_diag.Diag.t list
(** Run every check; the solver is only read (problem clauses, root
    assignment, names).  Networks with more than 12 inputs (no
    port-set row has more) skip the exhaustive semantic check but keep
    the structural ones.  Must be called at decision level 0. *)
