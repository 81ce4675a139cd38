(** Boolean encoding of candidate port mappings (§3.3.1-§3.3.2, §4.3).

    Every blocking instruction carries a single µop, so the mapping is a
    boolean matrix [m\[u⁽ⁱ⁾,k\]]: µop of instruction [i] may execute on
    port [k].  Cardinality constraints pin each µop's port count to the
    value measured from its throughput (§3.3.1, "we add constraints so that
    each µop's number of ports fits the previous throughput measurements").

    Improper blocking instructions — the §4.3 store blockers — carry two
    µops: one of their own, and one constrained to equal the µop of {e some}
    other blocking instruction (proper, or the own µop of another improper
    one — store blockers share the store µop among themselves on layouts
    where no proper class covers it), selected by auxiliary choice
    variables.

    Since ports are interchangeable a priori, the encoding optionally adds
    lexicographic column-ordering constraints: the matrix columns (ports),
    read along the proper µop rows, must be non-increasing.  Every mapping
    has such a representative, so no behaviour is lost, while the SAT search
    stops enumerating port renamings of the same mapping.

    {b Guarded rows.}  Rows may also be appended after creation
    ({!append_row}): such rows are {e guarded} — their cardinality chain is
    conditional on a fresh activation variable, and every lemma built by
    {!block_footprint} that mentions them carries the negated activation
    literal.  Assume {!row_assumptions} on each solve to activate them;
    {!retire_row} permanently drops a row (and every lemma scoped to it)
    with a single unit clause, no rebuild.  No CEGIS path appends rows
    today; they are the building block for switching scheme rows on and
    off inside one persistent encoding. *)

type instr_spec =
  | Proper of int               (** single µop with the given port count *)
  | Improper of { own_ports : int }
  (** own µop with [own_ports] ports, plus one µop shared with a proper
      blocking instruction *)

type t

val create :
  num_ports:int ->
  ?symmetry_breaking:bool ->
  ?certify:bool ->
  (Pmi_isa.Scheme.t * instr_spec) list ->
  t
(** [~certify:true] turns on the solver's DRAT proof logging {e before} any
    clause is added, so every later verdict carries a complete certificate
    ([Pmi_smt.Sat.proof]).  The µop variables are always named
    ([own(<scheme>,p<k>)], [shared(…)], [select(<improper>,<partner>)]) so
    static-analysis diagnostics ({!Pmi_analysis.Enclint}) can name them.
    @raise Invalid_argument if a port count is out of range or an improper
    instruction is given without any proper one. *)

val sat : t -> Pmi_smt.Sat.t
val num_ports : t -> int

val schemes : t -> (Pmi_isa.Scheme.t * instr_spec) list
(** The live rows, in row order (retired rows are excluded everywhere). *)

val append_row : t -> Pmi_isa.Scheme.t -> instr_spec -> unit
(** Append a guarded row: fresh named µop variables plus a fresh activation
    variable [act(<scheme>)] whose negation guards the cardinality chain.
    The row only binds while its activation literal ({!row_assumptions}) is
    assumed true.
    @raise Invalid_argument on an [Improper] spec (store blockers need the
    selector machinery over a fixed partner set), an out-of-range
    port count, or a scheme that already has a live row. *)

val retire_row : t -> Pmi_isa.Scheme.t -> unit
(** Permanently drop a guarded row by unit-negating its activation literal:
    its cardinality chain and every lemma mentioning it become inert, and
    the row disappears from {!schemes}/{!decode}/lemma construction.  The
    variables stay in the solver.
    @raise Invalid_argument if the scheme has no live row or the row is an
    unguarded creation-time row. *)

val row_assumptions : t -> Pmi_smt.Lit.t list
(** The positive activation literals of every live guarded row — assume
    these on each solve of an encoding with appended rows. *)

val decode : t -> bool array -> Pmi_portmap.Mapping.t
(** Read a port mapping out of a SAT model. *)

val row_index : t -> Pmi_isa.Scheme.t -> int
(** The index of the scheme's live row, as {!redecode} numbers the rows;
    [-1] when it has none. *)

type decoder
(** A mapping kept equal to {!decode} of the last model it was given,
    updated one changed row at a time.  The encoding's rows must not
    change (no {!append_row} or {!retire_row}) while it is in use. *)

val decoder : t -> decoder
(** A decoder that has seen no model yet. *)

val decoded : decoder -> Pmi_portmap.Mapping.t
(** The decoder's mapping: {!decode} of the last model given to
    {!redecode}.  The same mapping, updated in place, on every call. *)

val redecode : decoder -> bool array -> bool array
(** [redecode d model] brings [decoded d] to [decode t model] by
    re-decoding the live rows whose port sets differ from the previous
    model's (every live row on the first call), and returns one flag per
    row telling which did.
    @raise Invalid_argument when the encoding's rows changed. *)

val freeze_lits : t -> Pmi_portmap.Mapping.t -> Pmi_smt.Lit.t list
(** Literals pinning every live row whose scheme the mapping covers to
    exactly the mapping's port sets; rows the mapping does not cover are
    left free.  Part of the guarded-row API: assumed on a solve next to
    {!row_assumptions}, they pin the covered rows to an accepted mapping.
    @raise Invalid_argument on an incompatible µop structure. *)

val block_footprint :
  t -> bool array -> Pmi_isa.Scheme.t list -> Pmi_smt.Lit.t list
(** A lemma clause refuting every assignment that agrees with [model] on
    all µop variables of the given schemes — the CEGAR learning step: a
    violated experiment refutes exactly the port sets of the schemes it
    contains.  Guarded rows contribute their negated activation literal,
    scoping the lemma to the rows' lifetimes: retiring any mentioned row
    satisfies (and thereby retires) the lemma. *)

val block_model : t -> bool array -> Pmi_smt.Lit.t list
(** [block_footprint] over all schemes. *)

(** How a decoded model fails an observation. *)
type violation =
  | Too_slow of Pmi_portmap.Portset.t
  (** modeled throughput above the measured interval; carries the
      model's bottleneck set ({!Pmi_portmap.Oracle.bottleneck_set}) *)
  | Too_fast  (** modeled throughput below the measured interval *)

val block_bottleneck :
  t -> bool array -> Pmi_isa.Scheme.t list -> violation -> Pmi_smt.Lit.t list
(** A lemma clause that [model] falsifies and that refutes only
    assignments failing the observation in the same direction, by the
    bottleneck-set theorem (§2.2) and the monotonicity of [tp⁻¹] in the
    µops' port sets.  Every µop row (own and shared) of the given schemes
    is judged separately:
    - [Too_slow q]: the OR, over the rows whose port set lies inside [q]
      and the ports [k ∉ q], of [m\[u,k\]].  A mapping that keeps those
      rows inside [q] puts at least as much mass on [q], so it is at least
      as slow.  With [q] the whole port set the clause is empty: no mapping
      is fast enough.
    - [Too_fast]: the negation of every true literal of the rows.  A
      mapping whose port sets contain the model's is at least as fast.

    One lemma covers every mapping with the violating shape, where
    {!block_footprint} refutes one combination of the rows' port sets.
    Guarded rows contribute their negated activation literal, as in
    {!block_footprint}. *)

(** {1 Static analysis support} *)

val enclint_view :
  ?frozen:Pmi_smt.Lit.t list -> t -> Pmi_analysis.Enclint.view
(** Describe the encoding to the static analyzer: every row with its
    activation literal, liveness, and recorded cardinality networks.
    [?frozen] are assumption literals that pin rows for a solve. *)
