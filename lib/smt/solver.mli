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
  check:(bool array -> Lit.t list list) ->
  Sat.t ->
  result
(** [solve ~check sat] alternates SAT solving and theory checking.  A model
    for which [check] returns [[]] is theory-consistent and returned.
    Otherwise all returned lemma clauses are added and solving resumes; at
    least one lemma must be falsified by the rejected model (enforced by
    assertion) so that every round makes progress.

    @raise Failure after 100,000 rounds, which indicates a diverging
    theory encoding. *)
