(** Counter-example-guided port-mapping inference (§3.3, Algorithm 2).

    The loop maintains a set of measured experiments.  [find_mapping]
    searches a port mapping consistent with every measurement (SAT modulo
    the port-mapping theory: candidate mappings decoded from SAT models are
    checked against the observations with the exact throughput oracle under
    the §3.4 frontend bound; every violated observation yields a footprint
    lemma).  [find_other_mapping] searches a second consistent mapping
    together with a distinguishing experiment, trying small experiments
    first (the stratified search of §3.3.4) and requiring the 2ε separation
    that makes one measurement able to refute one of the two mappings.

    Termination mirrors the paper's argument: every candidate mapping a
    [find_other_mapping] call produces is either returned with a
    distinguishing experiment (and one of the two mappings dies with the
    next measurement) or permanently blocked within the call. *)

type config = {
  num_ports : int;
  r_max : int;
  epsilon : Pmi_numeric.Rat.t;
  max_experiment_size : int;   (** stratified distinguishing-experiment bound *)
  max_other_candidates : int;  (** consistent-mapping candidates examined per
                                   [find_other_mapping] call before declaring
                                   convergence *)
  max_iterations : int;        (** Algorithm-2 iteration budget *)
  symmetry_breaking : bool;
  domains : int;               (** > 1 fans the stratified
                                   distinguishing-experiment search and the
                                   convergence validation sweep out over
                                   that many OCaml domains; both pick the
                                   sequential winner, so the result does
                                   not depend on the count.  The validation
                                   sweep calls [measure] concurrently, so
                                   only raise this with a thread-safe
                                   measure function (default [1]) *)
  cube_conquer : int;          (** > 0 replaces the sequential SAT loop
                                   with cube-and-conquer
                                   ({!Pmi_smt.Solver.solve_cubes}): each
                                   theory round splits the search space on
                                   that many variables — hinted by
                                   {!Pmi_core.Encoding.split_hint}, the
                                   port-set rows of the most-constrained
                                   instruction classes — into [2^k]
                                   assumption cubes scheduled across
                                   [domains] workers with work stealing
                                   and continuous cross-worker clause
                                   sharing.  Only effective with
                                   [domains > 1] (default [0], off) *)
  dump_cnf : string option;    (** [Some prefix] writes the final CNF of
                                   each persistent solver in DIMACS format
                                   to [prefix ^ "-findmapping.cnf"] etc.,
                                   for offline triage (default [None]) *)
  certify : bool;              (** trust-but-verify: log DRAT proof traces
                                   in every solver and have the independent
                                   checker ({!Pmi_analysis.Drat}) accept a
                                   certificate for {e each} verdict the loop
                                   consumes — UNSAT answers (plain,
                                   under assumptions, and cube-and-conquer
                                   alike) must re-derive as
                                   RUP, SAT models must satisfy every input
                                   clause and their decoded mapping must
                                   explain every observation under the naive
                                   exact-rational oracle.  A failure raises
                                   {!Certification_failure} (default
                                   [false]) *)
  enclint : bool;              (** run the solver-off static analyzer
                                   ({!Pmi_analysis.Enclint.analyze}) over
                                   each encoding once per solver episode —
                                   before every [findMapping] /
                                   [findOtherMapping] / delta-flush solve.
                                   Structural checks (guards, duplicates,
                                   retired-row reachability, split hints)
                                   re-run each episode; the exhaustive
                                   cardinality-cone verification is paid
                                   once per solver instance.  Any
                                   [Error]-severity finding raises
                                   {!Enclint_failure}; findings are also
                                   logged and tallied under the
                                   [cegis.enclint.*] counters (default
                                   [false]) *)
  mapcheck : bool;             (** static refutation through the abstract
                                   interpreter ({!Pmi_analysis.Mapcheck}):
                                   the loop tracks every proper scheme's
                                   candidate port sets and, on each new
                                   observation, refutes candidates whose
                                   sound throughput interval excludes the
                                   measured value (same ε·|e| tolerance as
                                   consistency) — each refutation lands as
                                   a clause ({!Encoding.refute_row}) in
                                   every live encoding before any solver
                                   episode pays for rediscovering it.
                                   Initial singleton measurements whose
                                   value is already statically determined
                                   (point interval across all surviving
                                   candidates under the frontend bound)
                                   are skipped entirely, and in delta
                                   sessions interchangeable-port pairs of
                                   the accepted mapping are re-fed as
                                   ordering facts over the batch rows
                                   ({!Encoding.order_ports}).  Refutation
                                   is sound w.r.t. the model class, so the
                                   inferred mapping is unchanged — only
                                   the measurement and search effort
                                   shrink.  Tallied under the
                                   [cegis.mapcheck.*] counters; off for
                                   [num_ports] > 12 where the candidate
                                   spaces explode (default [false]) *)
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
                                   certificates are written through.  The
                                   {e measurement} store rides on the
                                   harness ({!Pmi_measure.Harness.create}),
                                   not on this field (default [None]) *)
}

exception Certification_failure of string
(** An answer the solver produced could not be independently verified:
    either a DRAT certificate was rejected, or a SAT model failed the
    CNF/theory replay.  This indicates a solver or encoding bug — the
    result must not be trusted. *)

exception Enclint_failure of string
(** The static analyzer found an [Error]-severity defect in an encoding
    (wrong cardinality bound, missing guard literal, reachable retired
    row, …) before the solver ran on it.  Solver verdicts on such an
    encoding cannot be trusted, so the episode is aborted.  Only raised
    with [config.enclint] on. *)

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
                                        [findOtherMapping] / delta-flush
                                        solve, certified or not; the unit
                                        MapCheck's static refutation tries
                                        to save *)
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

val infer :
  ?config:config ->
  ?warm_start:observation list ->
  measure:(Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t) ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  unit ->
  outcome
(** Run Algorithm 2.  [measure] performs one steady-state benchmark; the
    initial experiment set is the singleton benchmark of every scheme.

    [warm_start] (default [[]]) replays previously measured observations
    — typically {!Pmi_measure.Harness.stored_observations} from a
    durable store — before the initial singleton round: they join the
    observation log and feed the MapCheck refuter exactly as fresh
    measurements would, singleton measurements they already cover are
    skipped, and the convergence-time validation sweep skips every
    experiment they answer.  Observations mentioning schemes outside
    [specs] are ignored ([cegis.warm_observations] counts the replayed
    ones).  Warm starting is sound: replayed values are real
    measurements of the same machine, so they constrain the search
    exactly as they did in the run that produced them. *)

val explain :
  ?config:config ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  observations:observation list ->
  unit ->
  Pmi_portmap.Mapping.t option
(** One standalone [findMapping] call: a mapping over [specs] consistent
    with the observations, if any.  Used for the §4.3 culprit search when
    the full inference reports UNSAT. *)

(** {1 Online incremental re-inference (delta mode)} *)

type delta_outcome =
  | Delta_applied of outcome
      (** the batch was solved against the frozen rows; [Converged] carries
          the updated full mapping *)
  | Delta_fallback of outcome
      (** the delta solver proved the batch inconsistent with the frozen
          rows, so a full re-inference over every live scheme ran instead;
          the outcome is that full run's *)

(** A long-lived delta-CEGIS session over a streaming catalog.

    [start] builds one persistent encoding in which {e every} port-set row
    is guarded by an activation literal ({!Encoding.append_row}), seeded
    from a previously accepted mapping.  New or changed schemes are
    [enqueue]d and batched; [flush] runs one solver episode for the whole
    batch: changed schemes' stale rows are retired with a unit clause
    (which also deactivates the theory lemmas scoped to them) and their
    observations dropped, fresh rows are appended, all pending singletons
    are measured in one batched sweep ([measure_batch], by default
    point-wise [measure]; pass {!Pmi_measure.Harness.sweep} to amortise
    harness round-trips), and the CEGIS loop then runs with the frozen
    rows pinned through solver {e assumptions}
    ({!Encoding.freeze_lits} + {!Encoding.row_assumptions}) — prior
    observations, learnt clauses, and theory lemmas all stay alive, and
    only the batch rows' port sets are actually open.  Under
    [config.certify] every delta verdict is certified exactly like the
    batch path: UNSAT answers must re-derive the negated assumption goal
    as RUP through the independent DRAT checker, SAT models replay against
    the CNF and the exact oracle.

    If the delta solve proves the batch inconsistent with the frozen rows,
    [flush] automatically falls back to a full re-inference over all live
    schemes and, on convergence, rebuilds the session around the new
    mapping ([Delta_fallback]).

    Sessions reject [Improper] (store-blocker) specs: their selector
    machinery does not compose with dynamic row sets, so such schemes take
    the full re-inference path.  Symmetry breaking is always off in the
    session encoding — an externally supplied frozen mapping need not be
    the lex-minimal column representative. *)
module Delta : sig
  type session

  val start :
    ?config:config ->
    measure:(Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t) ->
    ?measure_batch:
      (Pmi_portmap.Experiment.t list -> Pmi_numeric.Rat.t list) ->
    mapping:Pmi_portmap.Mapping.t ->
    specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
    ?observations:observation list ->
    unit ->
    session
  (** [mapping] must cover every scheme in [specs] (it is the accepted
      result of a prior inference over them); [observations] seeds the
      session's experiment set, typically the final stats of that run.
      @raise Invalid_argument on an [Improper] spec or an uncovered
      scheme. *)

  val enqueue : session -> Pmi_isa.Scheme.t -> Encoding.instr_spec -> unit
  (** Queue a new or changed scheme for the next [flush].  Re-enqueueing a
      scheme already pending replaces its spec (last write wins).
      @raise Invalid_argument on an [Improper] spec. *)

  val pending : session -> int
  val mapping : session -> Pmi_portmap.Mapping.t
  (** The currently accepted mapping over all live schemes. *)

  val batches : session -> int
  (** Non-empty flushes completed so far. *)

  val fallbacks : session -> int
  (** Flushes that fell back to full re-inference. *)

  val flush : session -> delta_outcome
  (** Run one solver episode over every pending scheme (no-op
      [Delta_applied (Converged _)] when nothing is pending).  On
      [Converged] the session's mapping is updated; on fallback
      convergence the session is rebuilt around the full result; on any
      failure outcome the session keeps its pre-flush mapping. *)
end

val infer_delta :
  ?config:config ->
  measure:(Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t) ->
  ?measure_batch:(Pmi_portmap.Experiment.t list -> Pmi_numeric.Rat.t list) ->
  mapping:Pmi_portmap.Mapping.t ->
  specs:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  ?observations:observation list ->
  updates:(Pmi_isa.Scheme.t * Encoding.instr_spec) list ->
  unit ->
  delta_outcome
(** One-shot convenience: [Delta.start], enqueue every update, [flush]. *)
