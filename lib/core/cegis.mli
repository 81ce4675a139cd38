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

(** The profile's shape, the search bound and the trust-but-verify
    switches.  The rest is fixed: measurements are compared under
    ε = {!Pmi_measure.Harness.Compare.default_epsilon}, a
    [find_other_mapping] call examines at most 400 consistent candidates
    before declaring convergence, and {!infer} stops with
    [Iteration_limit] after 400 iterations. *)
type config = {
  num_ports : int;
  r_max : int;
  max_experiment_size : int;   (** stratified distinguishing-experiment bound *)
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
(** Zen+'s shape (10 ports, [r_max] 5), experiments of up to 5
    instructions, no certification and no store.  {!Pipeline.run} takes
    the shape from its machine. *)

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

(** The distinguishing-experiment search of [find_other_mapping]
    (§3.3.4): every multiset of 1 up to [max_experiment_size] instructions
    over a fixed scheme list, smallest size first and within a size in a
    fixed order (scheme by scheme, each taking 1 up to the remaining budget
    of copies), for the first one whose bounded throughputs under two
    mappings are well separated (2ε·|e|).

    Two things make the walk cheaper without changing its answer.
    - Throughput does not change when ports are renamed.  Each {!find}
      builds a port bijection π greedily under which as many schemes as
      it can have m2's row equal to π of m1's row.  π is the identity
      unless it agrees on more schemes than the identity does.  Multisets
      made only of agreeing schemes are never evaluated, since their
      throughputs are equal by construction.
    - Leaf values are kept across calls.  Each multiset has one slot per
      mapping side, keyed by the ids of the rows it was evaluated on, so
      a later candidate or reference mapping with the same rows there
      reuses the value.

    The [cegis.distinguish.leaves] and [cegis.distinguish.kernels]
    counters add up the multisets evaluated and the throughput kernels
    run.  [cegis.distinguish.relabeled] counts the {!find} calls whose π
    beat the identity. *)
module Distinguish : sig
  type t

  val create : config -> Pmi_isa.Scheme.t list -> t
  (** A search over the schemes, in this order.  The slots are allocated
      by the first {!find}. *)

  val start : t -> Pmi_portmap.Mapping.t -> unit
  (** Make the mapping m1 the reference of the following {!find} calls.
      Kept values stay: each is checked against its rows before use.  The
      mapping must not be mutated until the next [start].
      @raise Pmi_portmap.Throughput.Unsupported if it lacks a scheme. *)

  val find : t -> Pmi_portmap.Mapping.t -> Pmi_portmap.Experiment.t option
  (** The first experiment in search order that separates m1 from the
      given mapping, if any.
      @raise Invalid_argument before the first {!start}.
      @raise Pmi_portmap.Throughput.Unsupported if the mapping lacks a
      scheme. *)

  val agreeing : t -> Pmi_portmap.Mapping.t -> Pmi_isa.Scheme.t list
  (** The schemes whose multisets {!find} against the mapping skips:
      those whose row in it is π of their row in m1.  They are at least as
      many as the schemes whose two rows are equal.
      @raise Invalid_argument before the first {!start}.
      @raise Pmi_portmap.Throughput.Unsupported if the mapping lacks a
      scheme. *)
end

val infer :
  ?config:config ->
  ?refute_early:bool ->
  ?round:int ->
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
    converged round measures a different experiment set.

    The run is one [cegis.infer] span, whose arguments are [order]
    ([early] or [paper]), [round] when given (the §4.3 culprit round the
    caller counts; nothing else reads it) and, at its end, [verdict]
    ([converged], [unsat] or [limit]). *)

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

(** Questions of the §4.3 culprit search, all answered on one encoding.
    A session is opened over a round's specs; each question names a subset
    of them and of the observations, and asks whether some mapping over
    those rows explains those observations.  The encoding guards every row
    and every distinct observation (an experiment with its cycles) with an
    activation variable; each question is one solve under assumptions that
    switch on its rows and observations and switch off the rest, and its
    theory check evaluates its own observations only.

    The theory check learns bottleneck-set lemmas, as {!infer}'s does
    ({!Encoding.block_bottleneck}): a model that is too slow for an
    observation refutes every mapping that keeps the µops inside its
    bottleneck set inside it, and a model that is too fast refutes every
    mapping whose port sets contain its own.  A lemma learned for an
    observation is guarded by that observation's variable, so learned
    lemmas carry over to later questions without binding those that leave
    it out. *)
module Session : sig
  type t

  val create :
    ?config:config -> (Pmi_isa.Scheme.t * Encoding.instr_spec) list -> t
  (** A session over the specs; the encoding is built by the first
      question. *)

  val explains :
    t ->
    specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
    observations:observation list ->
    bool
  (** Does some mapping over [specs] explain every observation?  One
      [cegis.explain] span.
      @raise Invalid_argument if a spec is not one of the session's, if
      [specs] hold an improper instruction without a proper one (as
      {!Encoding.create} does), or if an observation names a scheme
      outside [specs]. *)
end
