(** Lazy SMT: SAT modulo a theory given as a refutation callback.

    This is the counter-example-guided core of the paper's inference in
    solver form: the boolean skeleton describes candidate port mappings,
    and the theory check evaluates the port-mapping model (the
    [relateThroughput] constraints of §3.3.2) with exact arithmetic,
    returning lemmas for every violated observation. *)

type result =
  | Sat of bool array
  | Unsat

val solve :
  ?assumptions:Lit.t list ->
  ?max_rounds:int ->
  check:(bool array -> Lit.t list list) ->
  Sat.t ->
  result
(** [solve ~check sat] alternates SAT solving and theory checking.  A model
    for which [check] returns [[]] is theory-consistent and returned.
    Otherwise all returned lemma clauses are added and solving resumes; at
    least one lemma must be falsified by the rejected model (enforced by
    assertion) so that every round makes progress.

    @raise Failure if [max_rounds] (default 100,000) is exceeded, which
    indicates a diverging theory encoding. *)

(** {1 Cube-and-conquer} *)

val cube_cover :
  ?hint:int list -> ?assumptions:Lit.t list -> k:int -> Sat.t ->
  Lit.t list list
(** An exhaustive, pairwise-disjoint cover of the search space: pick up to
    [k] split variables — the [hint] list first (callers pass the port-set
    variables of the most-constrained instruction classes), topped up by
    {!Sat.most_constrained_vars} — and enumerate every assignment of them
    as an assumption cube.  Variables already decided at the root are
    skipped, as are the variables of [assumptions] (delta-mode CEGIS pins
    frozen rows and activation literals through assumptions — splitting on
    one would yield a dead half-cube); with no usable variable the cover
    is the single empty cube. *)

val solve_cubes :
  ?assumptions:Lit.t list ->
  ?max_rounds:int ->
  ?domains:int ->
  ?cubes:int ->
  ?conflict_budget:int ->
  ?hint:(unit -> int list) ->
  check:(bool array -> Lit.t list list) ->
  Sat.t ->
  result
(** Cube-and-conquer [solve]: per theory round the search space is split
    into [2^cubes] assumption cubes ({!cube_cover}, re-querying [hint]
    each round so the split follows the evolving VSIDS activity), and
    [min domains 8] diversified clones of the persistent solver pull cubes
    off a shared work queue.  The queue is {e adaptive}: a cube still open
    after its conflict budget (initially [conflict_budget]) is re-split on
    the claiming worker's most active free variable {e only} when its
    conflict spend is at least twice the average spend of the cubes already
    resolved this round — evidence the subspace is genuinely hard — with
    both halves going back on the queue for any worker to steal; an
    easy-but-unlucky cube is instead requeued whole with a doubled budget,
    so the split tree only deepens where the conflicts are (depth is capped
    at 16 splits as a safety net).  Workers continuously export their
    low-glue learnt clauses to a lock-protected shared pool and import
    their peers' clauses at restart boundaries, so hard cubes benefit from
    every worker's progress while all of them are still running.

    A SAT cube short-circuits the race through the pool's [stop] protocol
    and its model is a model of the full problem.  When every cube is
    refuted the verdict is [Unsat]; with proof logging enabled the parent
    trace is extended with all workers' learnt clauses (in the one global
    order that makes the merged sequence a valid DRAT suffix), one
    [goal ∨ ¬cube] clause per refuted leaf, and the cube-split tautology
    resolved bottom-up to the goal clause itself, so the stitched
    certificate passes the independent {!Pmi_analysis.Drat} checker.
    With [domains <= 1] this is exactly [solve]. *)
