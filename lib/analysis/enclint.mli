(** EncLint: solver-free static analysis of a constructed CEGIS
    encoding.

    The encoding layer ([Pmi_core.Encoding]) describes itself through a
    {!view} — rows, activation literals, recorded cardinality networks,
    theory lemmas, frozen assumptions, the cube-split hint — and
    {!analyze} cross-checks that description against the solver's
    problem-clause database without ever calling [solve]:

    {b Structural} — [dead-var] (allocated but unconstrained variables),
    [duplicate-clause], [tautology], [missing-guard] (a guarded row's
    network clause without its [¬act] literal), [unguarded-row] (a live
    row with no activation in a guarded encoding), [retired-reachable]
    (retired-row literals in live, non-root-satisfied clauses, or a
    retirement that never forced [¬act]), [split-dead] (cube-split hints
    over root-assigned or retired variables), [frozen-unused].

    {b Semantic} — [card-bound]/[card-guard]/[bound-mismatch]: every
    recorded [Card] network with at most [max_cone] inputs is verified
    against its declared bound by exhaustive enumeration of the input
    cone (a complete mini-DPLL decides each assignment over the recorded
    clauses, both with the guard active and, for vacuity, satisfied);
    [lemma-conflict] (a theory lemma that rules out the accepted
    assignment with every guard active) and [lemma-subsumed].

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
  lemmas : Pmi_smt.Lit.t list list;    (** theory lemmas asserted so far *)
  frozen : Pmi_smt.Lit.t list;         (** frozen assumption literals *)
  accepted : (int * bool) list;        (** accepted (pinned) assignment *)
  hint : int list;                     (** cube-split candidate variables *)
}

val empty_view : view
(** No rows, lemmas, frozen literals, accepted assignment, or hint —
    [analyze] then runs the pure CNF-level checks only. *)

val analyze :
  ?max_cone:int ->
  ?cone_memo:(string, unit) Hashtbl.t ->
  ?db:bool ->
  Pmi_smt.Sat.t ->
  view ->
  Pmi_diag.Diag.t list
(** Run every check; the solver is only read (problem clauses, root
    assignment, names, guard marks).  Networks with more than [max_cone]
    inputs (default [12], covering every port-set row) skip the
    exhaustive semantic check but keep the structural ones.

    [cone_memo], when supplied, caches clean exhaustive-enumeration
    verdicts keyed by network {e shape} (kind, bounds, input count,
    guardedness) across calls: the [Card] builder is deterministic, so
    shape-equal networks are identical up to variable renaming and one
    enumeration vets them all.  Networks that produced findings are never
    cached.  Pass a fresh table per logical session (e.g. one per CEGIS
    run).

    [db] (default [true]) controls the clause-database passes (dead
    variables, duplicate clauses, retired-literal reachability over the
    clauses, frozen-unused).  With [~db:false] only the view-layer checks
    run — guards, retirement root-values, split hints, cardinality cones,
    lemmas — which is what the CEGIS gate uses on repeat episodes of a
    solver whose database it has already vetted.  Must be called at
    decision level 0. *)
