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

    {b Delta rows.}  Rows may also be appended after creation
    ({!append_row}): such rows are {e guarded} — their cardinality chain is
    conditional on a fresh activation variable, and every lemma built by
    {!block_footprint} that mentions them carries the negated activation
    literal.  Assume {!row_assumptions} on each solve to activate them;
    {!retire_row} permanently drops a row (and every lemma scoped to it)
    with a single unit clause, no rebuild.  This is the encoding half of
    the incremental re-inference mode ({!Pmi_core.Cegis.Delta}). *)

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
    ([own(<scheme>,p<k>)], [shared(…)], [select(<improper>,<partner>)]) for
    DIMACS/DRAT cross-referencing.
    @raise Invalid_argument if a port count is out of range or an improper
    instruction is given without any proper one. *)

val sat : t -> Pmi_smt.Sat.t
val num_ports : t -> int

val schemes : t -> (Pmi_isa.Scheme.t * instr_spec) list
(** The live rows, in row order (retired rows are excluded everywhere). *)

val has_scheme : t -> Pmi_isa.Scheme.t -> bool
(** Is there a live row for the scheme? *)

val append_row : t -> Pmi_isa.Scheme.t -> instr_spec -> unit
(** Append a guarded row: fresh named µop variables plus a fresh activation
    variable [act(<scheme>)] whose negation guards the cardinality chain.
    The row only binds while its activation literal ({!row_assumptions}) is
    assumed true.
    @raise Invalid_argument on an [Improper] spec (store blockers need the
    selector machinery and go through full re-inference), an out-of-range
    port count, or a scheme that already has a live row. *)

val retire_row : t -> Pmi_isa.Scheme.t -> unit
(** Permanently drop a guarded row by unit-negating its activation literal:
    its cardinality chain and every lemma mentioning it become inert, and
    the row disappears from {!schemes}/{!decode}/{!split_hint}/lemma
    construction.  The variables stay in the solver.
    @raise Invalid_argument if the scheme has no live row or the row is an
    unguarded creation-time row. *)

val row_assumptions : t -> Pmi_smt.Lit.t list
(** The positive activation literals of every live guarded row — assume
    these on each solve of a delta-mode encoding. *)

val decode : t -> bool array -> Pmi_portmap.Mapping.t
(** Read a port mapping out of a SAT model. *)

val encode_mapping : t -> Pmi_portmap.Mapping.t -> Pmi_smt.Lit.t list
(** Literals asserting that the µop variables take exactly the port sets of
    the given mapping (used to hard-wire [M₁] in [findOtherMapping]).
    @raise Invalid_argument if the mapping lacks one of the schemes or has
    an incompatible µop structure. *)

val freeze_lits : t -> Pmi_portmap.Mapping.t -> Pmi_smt.Lit.t list
(** Like {!encode_mapping}, but rows whose scheme the mapping does not
    cover are simply left free — the delta-mode assumption set pinning the
    previously accepted rows while the freshly appended ones are solved.
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

val refute_row :
  t -> Pmi_isa.Scheme.t -> Pmi_portmap.Portset.t -> Pmi_smt.Lit.t list
(** A lemma clause asserting that the scheme's own µop row is {e not}
    exactly the given port set — the MapCheck static-refutation step
    ([Cegis] [config.mapcheck]): a candidate row whose throughput interval
    excludes an already-observed value is ruled out before any SAT episode
    pays for discovering it.  Like {!block_footprint}, guarded rows
    contribute their negated activation literal, so the refutation retires
    with the row.
    @raise Invalid_argument if the scheme has no live row. *)

val order_ports : ?schemes:Pmi_isa.Scheme.t list -> t -> int -> int -> unit
(** Add a lexicographic column-ordering fact: column [p] ≥ column [q] read
    along the own rows of [schemes] (default: all live proper rows).  Sound
    whenever ports [p] and [q] are interchangeable for every row {e not}
    covered by the constraint — in delta sessions (created with symmetry
    breaking off because frozen rows pin port identities), MapCheck detects
    port pairs whose swap leaves the accepted mapping invariant and feeds
    them here over the freshly appended rows, restoring the symmetry
    breaking the frozen rows still admit.  Clauses carry the ¬act guard of
    every covered guarded row, so the fact never outlives the rows it
    orders.  @raise Invalid_argument on an out-of-range or equal pair. *)

val split_hint : t -> int list
(** Cube-split hint for {!Pmi_smt.Solver.solve_cubes}: the own-port µop
    variables of the instruction classes, most constrained first — classes
    ranked by the summed VSIDS activity of their own µop row (catalog order
    on a fresh solver), ports within a row likewise by activity.  Retired
    rows and root-assigned variables are excluded — splitting on a decided
    variable wastes the cube.  Re-query after each solve; the ranking
    follows the search. *)

(** {1 Static analysis support} *)

val enclint_view :
  ?lemmas:Pmi_smt.Lit.t list list ->
  ?frozen:Pmi_smt.Lit.t list ->
  ?accepted:Pmi_portmap.Mapping.t ->
  t ->
  Pmi_analysis.Enclint.view
(** Describe the encoding to the static analyzer: every row with its
    activation literal, liveness, and recorded cardinality networks, plus
    the current {!split_hint}.  [?lemmas] are the theory lemmas asserted
    so far, [?frozen] the delta-mode assumption literals, [?accepted] a
    mapping whose pinned assignment lemmas are vetted against. *)
