(** MapCheck: abstract interpretation over (partial) port mappings, plus a
    semantic artifact auditor.

    Where {!Lint} checks the {e shape} of mappings, profiles and catalogs,
    MapCheck reasons about their {e semantics} through the bottleneck
    throughput formula [tp⁻¹(e) = max_Q mass(Q)/|Q|].  The abstract domain
    is the partial mapping of {!Pmi_portmap.Oracle.Bounds}: every scheme
    ranges over a non-empty set of candidate usages, and each experiment
    evaluates to a sound throughput {e interval} covering all completions.

    Three layers build on the domain:

    - {b Auditor} ({!audit_mapping}, {!audit_profile}, {!builtin}) — emits
      {!Pmi_diag.Diag} findings: counter-consistency replays of recorded
      observations against a mapping (CounterPoint-style, [Error] when an
      observation falls outside the interval ± ε·|e|), exact-rational
      cross-checks of the interval machinery against {!Pmi_portmap.Throughput}
      and {!Pmi_portmap.Lp_model}, dominance analysis (interchangeable and
      dominated ports), and well-formedness checks Lint cannot express
      (frontend-masked schemes that can never bottleneck, profile/mapping
      arity drift, empty candidate rows).

    - {b Static refutation} ({!Refuter}) — the CEGIS hook behind
      [config.mapcheck]/[--mapcheck]: maintains the surviving candidate row
      set of every scheme, refutes candidates whose interval excludes an
      already-observed value before any SAT episode is paid, and recognises
      experiments whose outcome is statically determined (a point interval)
      so their harness measurement can be skipped.

    - {b Interchangeable ports} ({!interchangeable_ports}) — port pairs
      whose swap leaves a mapping invariant, reported by the audit as the
      [interchangeable-ports] diagnostic. *)

type severity = Pmi_diag.Diag.severity =
  | Error
  | Warning

type diag = Pmi_diag.Diag.t = {
  rule : string;
  severity : severity;
  subject : string;
  message : string;
}

val errors : diag list -> diag list

(** {1 The abstract domain} *)

type interval = Pmi_portmap.Oracle.Bounds.interval = {
  lo : Pmi_numeric.Rat.t;
  hi : Pmi_numeric.Rat.t;
}

val default_epsilon : Pmi_numeric.Rat.t
(** [1/50], mirroring the harness comparison tolerance
    ([Pmi_measure.Harness.Compare.default_epsilon]); kept here because
    [pmi_analysis] sits below the measurement layer. *)

val excludes :
  epsilon:Pmi_numeric.Rat.t -> length:int -> interval -> Pmi_numeric.Rat.t ->
  bool
(** [excludes ~epsilon ~length iv v]: [v] lies outside
    [[lo - ε·length, hi + ε·length]] — the interval-level analogue of the
    harness' [cpi_equal] tolerance, so no value the CEGIS loop would accept
    as consistent is ever refuted. *)

val portsets_of_cardinality : num_ports:int -> int -> Pmi_portmap.Portset.t list
(** All [C(num_ports, c)] port sets of cardinality [c], ascending by mask. *)

val proper_candidates :
  num_ports:int -> int -> Pmi_portmap.Mapping.usage list
(** The candidate rows of an unconstrained proper scheme with [c] ports:
    one single-µop usage per cardinality-[c] port set. *)

(** {1 Static refutation for CEGIS} *)

module Refuter : sig
  type t

  val create :
    ?epsilon:Pmi_numeric.Rat.t ->
    num_ports:int ->
    r_max:int ->
    (Pmi_isa.Scheme.t * Pmi_portmap.Mapping.usage list) list ->
    t
  (** Track the given schemes, each starting from its full candidate-row
      list.  Schemes with an empty candidate list are not tracked (report
      them via {!audit_rows}).  Experiments mentioning untracked schemes
      are ignored by {!observe} and {!statically_determined}. *)

  val tracked : t -> Pmi_portmap.Experiment.t -> bool
  (** Every scheme of the experiment is tracked. *)

  val surviving :
    t -> Pmi_isa.Scheme.t -> Pmi_portmap.Mapping.usage list option

  val refuted_count : t -> int
  (** Total candidate rows refuted so far. *)

  val statically_determined :
    t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t option
  (** [Some v] when every surviving completion yields the same exact
      throughput [v]: either the pointwise interval is already a point, or
      (when a single scheme of the experiment is undetermined) pinning
      that scheme to each candidate in turn collapses to the same point —
      the Proper-c singleton benchmark, where every c-port candidate gives
      1/c under the frontend bound.  Under the port-mapping model such a
      measurement cannot refute anything, so a CEGIS run may skip it.
      (The convergence-time validation sweep still exercises every scheme
      against the live machine, preserving the §4.3 anomaly check.) *)

  val observe :
    t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t ->
    (Pmi_isa.Scheme.t * Pmi_portmap.Mapping.usage) list
  (** Record an observed inverse throughput and return the candidate rows
      it newly refutes: candidates whose pinned interval excludes the value
      (propagated to a fixpoint across the experiment's schemes).  Sound:
      a refuted row appears in no completion that explains the observation
      within ε, so asserting its negation preserves every mapping the CEGIS
      loop could accept.  If a scheme would lose {e all} its candidates the
      observation contradicts the model class; the scheme is left unchanged
      and the SAT loop is left to surface the inconsistency. *)
end

(** {1 Dominance analysis} *)

val interchangeable_ports : Pmi_portmap.Mapping.t -> (int * int) list
(** Pairs [p < q] whose swap maps every usage of the mapping onto itself.
    Such ports are observationally indistinguishable: any completion
    remains consistent under the swap, so the pairs are safe
    symmetry-breaking facts for encodings whose pinned rows are invariant
    under them. *)

val dominated_ports : Pmi_portmap.Mapping.t -> (int * int) list
(** Pairs [(p, q)] with [p ≠ q] where every port set containing [p] also
    contains [q] but not conversely — uops.info-style dominance: [q] can
    execute everything confined to [p].  Only used ports are reported. *)

(** {1 Auditor} *)

val audit_rows :
  subject:string ->
  (Pmi_isa.Scheme.t * Pmi_portmap.Mapping.usage list) list ->
  diag list
(** Well-formedness of a partial-mapping row set: [empty-candidates]
    (Error) for schemes with no candidate rows. *)

val audit_mapping :
  ?epsilon:Pmi_numeric.Rat.t ->
  ?samples:int ->
  ?lp_samples:int ->
  ?against:(Pmi_portmap.Experiment.t * Pmi_numeric.Rat.t) list ->
  r_max:int ->
  subject:string ->
  Pmi_portmap.Mapping.t ->
  diag list
(** Semantic audit of a concrete mapping:

    - [counter-inconsistent] (Error): a recorded observation in [against]
      falls outside the mapping's throughput interval ± ε·|e|;
      [observation-unmapped-scheme] (Error) when the mapping cannot
      evaluate it at all.
    - [interval-mismatch] (Error): the interval machinery disagrees with
      the exact oracles ({!Pmi_portmap.Throughput}/{!Pmi_portmap.Oracle})
      on sampled experiments, or produces [lo > hi].
    - [lp-mismatch]/[lp-infeasible] (Error): the bottleneck-formula value
      differs from the §2.2 linear program ({!Pmi_portmap.Lp_model}) on
      [lp_samples] sampled experiments.
    - [frontend-masked] (Warning): a scheme whose usage can never
      bottleneck — pure experiments of it are always frontend-bound, so
      its row is under-determined by throughput measurements.
    - [interchangeable-ports]/[dominated-port] (Warning): dominance
      analysis results, one finding per mapping. *)

val audit_profile :
  ?catalog:Pmi_isa.Catalog.t -> Pmi_machine.Profile.t -> diag list
(** Pair the profile with its ground-truth mapping: [arity-drift] (Error)
    on num_ports disagreement, then {!audit_mapping} under the profile's
    [r_max]. *)

val builtin : ?catalog:Pmi_isa.Catalog.t -> unit -> diag list
(** Audit everything the repo ships: every {!Pmi_machine.Profile.t} with
    its ground-truth mapping over the (default full Zen+) catalog.  Zero
    [Error]s expected — enforced by [test/test_mapcheck.ml] and the
    [pmi_repro mapcheck]/[pmi_repro lint] CLI gates. *)
