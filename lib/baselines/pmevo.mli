(** The PMEvo baseline (Ritter & Hack, PLDI 2020), reimplemented for the
    Figure 5 comparison.

    PMEvo infers port mappings by evolutionary optimisation: a population of
    candidate mappings is scored by how well it predicts the throughput of a
    fixed benchmark set (singletons, pairs and small random blocks), and
    evolves through tournament selection, per-instruction crossover and
    port-set mutation.  Unlike the paper's main algorithm there is no
    explanatory microbenchmark per mapping entry — the result is whatever
    the optimiser converges to, which is exactly the behaviour the
    evaluation contrasts against. *)

(** The evolution's size.  The rest is fixed: tournaments of 4, crossover
    rate 0.9, 2.5 expected mutations per child genome, at most 4 µops per
    instruction, 2 elite individuals copied unchanged each generation, and
    seed 7. *)
type config = {
  population : int;
  generations : int;
}

val default_config : config
(** 48 individuals over 250 generations. *)

type benchmark = {
  experiment : Pmi_portmap.Experiment.t;
  cycles : Pmi_numeric.Rat.t;  (** measured inverse throughput *)
}

val training_set :
  ?seed:int -> ?pairs:int -> ?blocks:int ->
  Pmi_measure.Harness.t -> Pmi_isa.Scheme.t list -> benchmark list
(** Singleton benchmarks of every scheme plus random pairs and random
    five-instruction blocks, measured on the harness. *)

val infer :
  ?config:config -> num_ports:int -> benchmark list -> Pmi_isa.Scheme.t list ->
  Pmi_portmap.Mapping.t
(** Evolve a mapping over [num_ports] ports (the machine's) for the given
    schemes against the benchmarks. *)

val fitness : Pmi_portmap.Mapping.t -> benchmark list -> float
(** Mean absolute percentage error of the mapping on the benchmarks
    (lower is better). *)
