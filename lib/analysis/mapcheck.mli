(** MapCheck: a semantic auditor for concrete port mappings.

    Where {!Lint} checks the {e shape} of mappings, profiles and catalogs,
    MapCheck reasons about their {e semantics} through the bottleneck
    throughput formula [tp⁻¹(e) = max_Q mass(Q)/|Q|], evaluated by
    {!Pmi_portmap.Oracle}'s sparse kernel, the one the CEGIS search uses.
    It has no port limit.

    Two layers:

    - {b Auditor} ({!audit_mapping}, {!audit_profile}, {!builtin}) — emits
      {!Pmi_diag.Diag} findings: counter-consistency replays of recorded
      observations against a mapping (CounterPoint-style, [Error] when an
      observation lies outside the mapping's value ± ε·|e|), exact-rational
      cross-checks of the sparse kernel against the naive
      {!Pmi_portmap.Throughput} and against {!Pmi_portmap.Lp_model}, and
      well-formedness checks Lint cannot express (frontend-masked schemes
      that can never bottleneck, profile/mapping arity drift).

    - {b Dominance analysis} ({!interchangeable_ports}, {!dominated_ports})
      — port pairs whose swap leaves a mapping invariant, and ports whose
      µops always admit another; the audit reports them as the
      [interchangeable-ports] and [dominated-port] diagnostics. *)

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

(** {1 Dominance analysis} *)

val interchangeable_ports : Pmi_portmap.Mapping.t -> (int * int) list
(** Pairs [p < q] whose swap maps every usage of the mapping onto itself.
    Such ports are observationally indistinguishable: the swap changes
    no throughput, so an inferred mapping is only unique up to it. *)

val dominated_ports : Pmi_portmap.Mapping.t -> (int * int) list
(** Pairs [(p, q)] with [p ≠ q] where every port set containing [p] also
    contains [q] but not conversely — uops.info-style dominance: [q] can
    execute everything confined to [p].  Only used ports are reported. *)

(** {1 Auditor} *)

val audit_mapping :
  ?against:(Pmi_portmap.Experiment.t * Pmi_numeric.Rat.t) list ->
  r_max:int ->
  subject:string ->
  Pmi_portmap.Mapping.t ->
  diag list
(** Semantic audit of a concrete mapping:

    - [counter-inconsistent] (Error): a recorded observation in [against]
      lies outside the mapping's exact value ± ε·|e|, with ε = 1/50 (the
      harness comparison tolerance,
      [Pmi_measure.Harness.Compare.default_epsilon], mirrored because
      [pmi_analysis] sits below the measurement layer);
      [observation-unmapped-scheme] (Error) when the mapping cannot
      evaluate it at all.
    - [oracle-mismatch] (Error): the sparse kernel
      ({!Pmi_portmap.Oracle.inverse_bounded}) disagrees with the naive
      bottleneck formula ({!Pmi_portmap.Throughput.inverse_bounded}) on
      sampled experiments (12 singletons and 6 pairs at most).
    - [lp-mismatch]/[lp-infeasible] (Error): the bottleneck-formula value
      differs from the §2.2 linear program ({!Pmi_portmap.Lp_model}) on
      the first 3 sampled experiments.
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
