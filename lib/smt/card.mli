(** Cardinality constraints over literals, via the sequential-counter
    (Sinz 2005) encoding.  Auxiliary variables are allocated from the given
    solver.  The port-mapping encoding uses these to pin each µop's number
    of admissible ports to the value measured from its throughput.

    With [?guard] every emitted clause is prepended with the guard literal,
    making the constraint conditional: pass the negation of an activation
    variable and the chain only binds while that variable is assumed true.
    Guarded encoding rows ({!Pmi_core.Encoding}) use this to retire a row's
    cardinality constraint with a single unit clause.  The solver keeps no
    mark of which variables are guards. *)

val exactly : ?guard:Lit.t -> Sat.t -> Lit.t list -> int -> unit
(** [exactly s lits k] asserts that exactly [k] of [lits] are true. *)
