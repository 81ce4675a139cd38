(** Cardinality constraints over literals, via the sequential-counter
    (Sinz 2005) encoding.  Auxiliary variables are allocated from the given
    solver.  The port-mapping encoding uses these to pin each µop's number
    of admissible ports to the value measured from its throughput. *)

val exactly : Sat.t -> Lit.t list -> int -> unit
(** [exactly s lits k] asserts that exactly [k] of [lits] are true. *)
