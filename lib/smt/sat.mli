(** A CDCL SAT solver in the MiniSat/Glucose lineage.

    Engine features: flat int-array watcher lists with blocking literals
    (propagation is allocation-free), dedicated binary-clause implication
    lists, an indexed binary max-heap for VSIDS decisions, first-UIP conflict
    analysis with recursive clause minimization, phase saving, configurable
    Luby or geometric restarts, and LBD-scored learnt clauses with periodic
    clause-database reduction.

    The solver is incremental: clauses may be added between [solve] calls
    (at decision level 0 — every call returns there), and [solve
    ~assumptions] decides under a temporary assumption prefix without
    polluting the persistent state.  Clause-database reduction only ever
    discards learnt clauses; problem clauses — including the
    activation-literal clauses of the incremental CEGIS encoding — are
    permanent. *)

type t

type result =
  | Sat of bool array  (** model: polarity per variable *)
  | Unsat

(** Cumulative search counters.  [deleted] counts learnt clauses discarded
    by clause-database reduction; [max_lbd] is the largest glue score of any
    clause learnt so far. *)
type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  deleted : int;
  max_lbd : int;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val create : unit -> t

val fresh_var : t -> int
(** Allocate a new variable.  Variables are numbered consecutively from 0. *)

val num_vars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Add a disjunction of literals.  Must be called at decision level 0
    (which holds between [solve] calls).  Adding the empty clause (or a
    clause that simplifies to it) makes the solver permanently
    unsatisfiable. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve under the given assumptions.  The model of a [Sat] answer assigns
    every allocated variable.  [Unsat] under assumptions means
    unsatisfiable *under those assumptions*; the solver stays usable.
    Learnt clauses persist across calls. *)

val solve_opt :
  ?assumptions:Lit.t list -> ?stop:(unit -> bool) -> t -> result option
(** [solve] with a cooperative cancellation hook: [stop] is polled once per
    search-loop iteration, and [None] is returned if it fired before a
    verdict was reached.  The solver state stays valid (clauses learnt
    during the partial run persist). *)

val okay : t -> bool
(** [false] once the clause database is unsatisfiable at level 0. *)

val num_conflicts : t -> int
(** Total conflicts encountered so far (statistics). *)

val stats : t -> stats

(** {1 Parallel-solving support} *)

val copy : t -> t
(** An independent snapshot, safe to drive from another domain.  The clone
    starts with zeroed statistics, so a worker's progress can be folded
    back into the original via [add_learnt] and [absorb_stats]. *)

val add_learnt : t -> lbd:int -> Lit.t list -> unit
(** Import a clause learnt elsewhere (e.g. by a cube worker).  Like
    [add_clause] but the clause is registered as learnt, so it stays
    subject to clause-database reduction unless its glue is [<= 2]. *)

val absorb_stats : t -> t -> unit
(** [absorb_stats s clone] folds the clone's counters into [s]. *)

(** {1 Cube-and-conquer support} *)

val var_activity : t -> int -> float
(** Current VSIDS activity of a variable ([0.] out of range). *)

val root_value : t -> int -> int
(** Root-level (decision level 0) assignment of a variable: [1] true,
    [-1] false, [0] unassigned.  Call between [solve] calls. *)

val most_constrained_vars : t -> int -> int list
(** The [k] best cube-split candidates: variables unassigned at the root,
    ranked by VSIDS activity with occurrence count over the problem
    clauses as the tie-break (so a fresh solver still yields a meaningful
    order), most constrained first. *)

(** {1 Encoding introspection (static analysis support)}

    Read-only views of the problem-clause database, consumed by the
    EncLint static analyzer ([Pmi_analysis.Enclint]).  All of these must
    be called at decision level 0 (between [solve] calls). *)

val id : t -> int
(** A process-unique instance id (clones included), so analysis passes can
    key per-solver side tables without retaining the solver. *)

val iter_long_problem_clauses : t -> (int -> Lit.t list -> unit) -> unit
(** Iterate [f cref lits] over every live long (>= 3 literal) problem
    clause.  Crefs remain valid until the next arena compaction (a solve
    with clause-DB reduction). *)

val binary_problem_clauses : t -> (Lit.t * Lit.t) list
(** Every binary problem clause, in assertion order. *)

val root_units : t -> Lit.t list
(** The decision-level-0 trail: unit-implied and asserted literals. *)

val mark_guard : t -> int -> unit
(** Declare a variable to be a guard/activation literal (delta-session
    rows, per-call blocking activations).  {!to_dimacs} annotates it. *)

val is_guard : t -> int -> bool

val set_on_learnt : t -> (int -> Lit.t list -> unit) option -> unit
(** Install (or clear) a hook fired synchronously as [f lbd lits] on every
    clause the search learns — the continuous-export half of the
    cube-and-conquer shared clause pool.  The hook runs mid-search and
    must not reenter the solver. *)

val set_on_restart : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook fired at every decision-level-0 boundary
    inside [solve_opt] (each restart).  Importing foreign clauses via
    {!add_learnt} is legal there; an import that exposes root
    unsatisfiability terminates the search with [Unsat]. *)

(** {1 Diversification knobs} *)

val set_seed : t -> int -> unit
(** Seed the solver's internal PRNG (used by random decisions and
    [randomize_phases]). *)

val set_random_var_freq : t -> float -> unit
(** Probability in [[0, 1]] of picking a random decision variable instead
    of the top of the VSIDS heap.  Default [0.]. *)

val set_restart : t -> [ `Luby of int | `Geometric of int ] -> unit
(** Restart policy: Luby sequence scaled by the given unit, or the
    geometric policy growing by 3/2 from the given base (the default is
    [`Geometric 300]; cube workers diversify over both). *)

val set_reduce_enabled : t -> bool -> unit
(** Enable/disable clause-database reduction (default enabled). *)

val invert_phases : t -> unit
(** Flip every saved phase (decision polarity). *)

val randomize_phases : t -> unit
(** Randomize every saved phase using the solver PRNG. *)

(** {1 Certification} *)

(** One step of a DRAT-style proof trace, logged when proof logging is on.
    [Input] clauses are axioms asserted via {!add_clause} (problem clauses,
    cardinality chains, theory lemmas).  [Derive] clauses are additions that
    must have the reverse-unit-propagation (RUP) property with respect to
    every step logged before them: first-UIP learnt clauses, and clauses
    imported from a cube worker.  [Delete] records a clause discarded
    by clause-database reduction.  Literals appear exactly as produced; the
    independent checker ([Pmi_analysis.Drat]) canonicalizes. *)
type proof_step =
  | Input of Lit.t list
  | Derive of Lit.t list
  | Delete of Lit.t list

val set_proof_logging : t -> bool -> unit
(** Enable/disable proof logging (default off).  Enable it {e before} adding
    clauses, otherwise the trace is missing axioms and no derivation will
    check.  Logging survives across [solve] calls, so one trace certifies a
    whole incremental session. *)

val proof_logging : t -> bool

val proof : t -> proof_step list
(** The trace so far, oldest step first. *)

val proof_length : t -> int

val proof_derive : t -> Lit.t list -> unit
(** [proof_derive s lits] appends an externally justified derivation step
    (e.g. a cube worker's learnt clause) to the trace.  No-op when proof
    logging is off. *)

exception Invariant_violation of string

val set_sanitize : t -> bool -> unit
(** Debug flag (default off): when on, {!Invariants.check} runs at every
    decision-level-0 boundary inside [solve] — entry, each restart/DB
    reduction, and exit — and a failure raises {!Invariant_violation}. *)

(** Structural well-formedness checks over the live solver state: literal
    slot consistency, trail/level segment agreement, reason clauses
    well-formed and never deleted, watcher completeness over the flat arena
    (every live clause watched by exactly its first two literals, blockers
    inside the clause), VSIDS heap/index integrity, and binary-list
    bounds. *)
module Invariants : sig
  val check : t -> (unit, string) Stdlib.result
  (** [Ok ()] or [Error message] naming the first violated invariant.  Call
      at decision level 0 (between [solve] calls, or via {!set_sanitize}
      inside them). *)
end

(** {1 Export} *)

val name_var : t -> int -> string -> unit
(** Attach a human-readable name to a variable; {!to_dimacs} emits it as a
    [c var <dimacs-id> <name>] comment so CNF dumps and DRAT traces can be
    cross-referenced against the encoding.  Variables declared via
    {!mark_guard} additionally carry a [(guard)] tag in that comment, and
    anonymous guards still get a line. *)

val var_name : t -> int -> string option

val to_dimacs : ?learned:bool -> t -> Buffer.t -> unit
(** Append the clause set in DIMACS CNF format ([p cnf] header, 1-based
    variables, level-0 unit clauses included).  [~learned:true] also
    exports the live learnt clauses. *)

val dimacs : ?learned:bool -> t -> string
