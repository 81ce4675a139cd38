(** Counter-example-guided port-mapping inference (§3.3, Algorithm 2).

    The loop maintains a set of measured experiments.  [find_mapping]
    searches a port mapping consistent with every measurement (SAT modulo
    the port-mapping theory: candidate mappings decoded from SAT models are
    checked against the observations with the exact throughput oracle under
    the §3.4 frontend bound; every violated observation yields a
    bottleneck-set lemma, {!Encoding.block_bottleneck}).
    [find_other_mapping] searches a second consistent mapping together
    with a distinguishing experiment, trying small experiments first (the
    stratified search of §3.3.4) and requiring the 2ε separation that
    makes one measurement able to refute one of the two mappings.

    Termination mirrors the paper's argument: every candidate mapping a
    [find_other_mapping] call produces is either returned with a
    distinguishing experiment (and one of the two mappings dies with the
    next measurement) or permanently blocked within the call.

    At convergence the loop does not return the model SAT happened to
    find but the {!canonical} mapping of the observations, so which
    representative comes out does not depend on the solver's trajectory.
    If an experiment tells the two apart, convergence was premature: the
    experiment is measured and the loop goes on. *)

type config = {
  num_ports : int;
  r_max : int;
  epsilon : Pmi_numeric.Rat.t;
  max_experiment_size : int;   (** stratified distinguishing-experiment bound *)
  max_other_candidates : int;  (** consistent-mapping candidates examined per
                                   [find_other_mapping] call before declaring
                                   convergence *)
  max_iterations : int;        (** Algorithm-2 iteration budget *)
  certify : bool;              (** trust-but-verify: log DRAT proof traces
                                   in every solver and have the independent
                                   checker ({!Pmi_analysis.Drat}) accept a
                                   certificate for {e each} verdict the loop
                                   consumes — UNSAT answers (plain and
                                   under assumptions alike) must re-derive
                                   as RUP, SAT models must satisfy every
                                   input clause and their decoded mapping
                                   must explain every observation under
                                   the naive exact-rational oracle.  A
                                   failure raises
                                   {!Certification_failure} (default
                                   [false]) *)
  store : Pmi_store.Store.t option;
                               (** durable store for checker-accepted
                                   certificates: with [certify] on, an
                                   UNSAT verdict whose exact proof (keyed
                                   by {!Pmi_analysis.Drat.goal_digest},
                                   valued by
                                   {!Pmi_analysis.Drat.proof_digest}) was
                                   accepted by a previous run skips the
                                   DRAT re-check ([cegis.certificates_cached]
                                   counts the skips); freshly accepted
                                   certificates are written through
                                   (default [None]) *)
}

exception Certification_failure of string
(** An answer the solver produced could not be independently verified:
    either a DRAT certificate was rejected, or a SAT model failed the
    CNF/theory replay.  This indicates a solver or encoding bug — the
    result must not be trusted. *)

val default_config : config

type observation = {
  experiment : Pmi_portmap.Experiment.t;
  cycles : Pmi_numeric.Rat.t;
}

type stats = {
  iterations : int;
  observations : observation list;  (** every measured experiment, in order *)
  candidates_tried : int;           (** mappings examined by
                                        [find_other_mapping] overall *)
  theory_lemmas : int;
  sat_episodes : int;               (** solver episodes this run paid for —
                                        every [findMapping] /
                                        [findOtherMapping] solve,
                                        certified or not *)
  sat : Pmi_smt.Sat.stats;          (** aggregated solver counters across
                                        the [findMapping] and
                                        [findOtherMapping] encodings *)
}

type outcome =
  | Converged of Pmi_portmap.Mapping.t * stats
  | No_consistent_mapping of stats
  | Iteration_limit of stats

val modeled_inverse :
  config -> Pmi_portmap.Mapping.t -> Pmi_portmap.Experiment.t ->
  Pmi_numeric.Rat.t
(** Throughput of the port-mapping model combined with the [r_max] frontend
    bound of §3.4. *)

val consistent :
  config -> Pmi_portmap.Mapping.t -> observation -> bool
(** Does the mapping explain the observation within ε·|e|? *)

val theory_rounds :
  ?config:config ->
  Encoding.t ->
  (observation list * bool array) list ->
  Pmi_smt.Lit.t list list list
(** The lemmas of one theory check per step, in order, all on one
    encoding's theory-check state, which re-evaluates an observation only
    when a row of its schemes changed since the previous check.  Each
    step's observations must extend the previous step's (CEGIS only ever
    appends).  A one-step call is a check from scratch, so tests can hold
    every step to it. *)

val infer :
  ?config:config ->
  ?refute_early:bool ->
  measure:(Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t) ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  unit ->
  outcome
(** Run Algorithm 2.  [measure] performs one steady-state benchmark; the
    initial experiment set is the singleton benchmark of every scheme.
    Every run starts cold: the only history it sees is what [measure]
    answers.  The loop is sequential; [measure] is only ever called from
    the calling domain.  A [Converged] mapping is the {!canonical} mapping
    of the run's observations.

    Before declaring convergence the loop checks the mapping against a
    sweep of canonical flooding experiments and observes the first one it
    fails to explain.  By default (the paper's order) the sweep runs only
    once [findOtherMapping] finds nothing.  With [refute_early] it runs on
    every iteration's [findMapping] model, before [findOtherMapping]: a
    round whose observations hold a §4.3 anomaly then reaches UNSAT in a
    few iterations instead of converging first.  The sweep experiments
    observed early take the place of distinguishing experiments, so a
    converged round measures a different experiment set. *)

val canonical :
  ?config:config ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  observations:observation list ->
  unit ->
  Pmi_portmap.Mapping.t option
(** The canonical mapping consistent with the observations, if any: over
    the [m\[u,k\]] variables in row order and ascending port order
    ({!Encoding.mapping_vars}), each variable is true whenever a
    consistent mapping that agrees with the choices before it has it true.
    It depends on [specs] and the observations only, so a cold encoding
    returns what {!infer} returned for the same observations. *)

val explain :
  ?config:config ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  observations:observation list ->
  unit ->
  Pmi_portmap.Mapping.t option
(** One standalone [findMapping] call: a mapping over [specs] consistent
    with the observations, if any.  Used for the §4.3 culprit search when
    the full inference reports UNSAT ({!Pipeline}).

    The theory check learns bottleneck-set lemmas, as {!infer}'s does
    ({!Encoding.block_bottleneck}): a model that is too slow for an
    observation refutes every mapping that keeps the µops inside its
    bottleneck set inside it, and a model that is too fast refutes every
    mapping whose port sets contain its own.  Only the verdict is read;
    the mapping returned is whichever model SAT finds first. *)
