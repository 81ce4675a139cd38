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

    The rows are fixed at {!create}, one per blocking instruction of the
    solve.  With row guards, one encoding answers questions about any
    subset of its rows: each row gets an activation variable, and a
    question assumes the rows it keeps on and the others off
    ({!activation}).  A switched-off row is free apart from its own
    cardinality, and an active improper row cannot take its shared µop
    from a switched-off row, so an answer is the answer of an unguarded
    encoding over the kept rows alone.  The column ordering runs over
    every proper row, switched off or not; since throughput does not
    change under a renaming of the ports, that loses no mapping of the
    kept rows either. *)

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
  ?guards:bool ->
  (Pmi_isa.Scheme.t * instr_spec) list ->
  t
(** [~certify:true] turns on the solver's DRAT proof logging {e before} any
    clause is added, so every later verdict carries a complete certificate
    ([Pmi_smt.Sat.proof]).  [~guards:true] (default [false]) adds one
    activation variable per row, made after every other variable, so the
    rest is numbered as without guards; each improper row's partner
    selector gets the clause [¬act_i ∨ act_p ∨ ¬sel_{i,p}].
    @raise Invalid_argument if a port count is out of range or an improper
    instruction is given without any proper one. *)

val activation :
  t -> (Pmi_isa.Scheme.t * instr_spec) list -> Pmi_smt.Lit.t list
(** The assumptions that switch on exactly the rows of the given specs and
    switch off the others, one literal per row in row order.
    @raise Invalid_argument if the encoding has no row guards, if a spec
    is not one of its rows, or, as {!create} does, if the specs hold an
    improper instruction without any proper one. *)

val sat : t -> Pmi_smt.Sat.t
val num_ports : t -> int

val schemes : t -> (Pmi_isa.Scheme.t * instr_spec) list
(** The rows, in row order. *)

val decode : t -> bool array -> Pmi_portmap.Mapping.t
(** Read a port mapping out of a SAT model. *)

val mapping_vars : t -> int array
(** The [m\[u,k\]] variables of the rows, in row order: each row's
    own µop by ascending port, then its shared µop (improper rows only).
    {!decode} reads exactly these. *)

val row_index : t -> Pmi_isa.Scheme.t -> int
(** The index of the scheme's row, as {!redecode} numbers the rows;
    [-1] when it has none. *)

type decoder
(** A mapping kept equal to {!decode} of the last model it was given,
    updated one changed row at a time. *)

val decoder : t -> decoder
(** A decoder that has seen no model yet. *)

val decoded : decoder -> Pmi_portmap.Mapping.t
(** The decoder's mapping: {!decode} of the last model given to
    {!redecode}.  The same mapping, updated in place, on every call. *)

val redecode : decoder -> bool array -> bool array
(** [redecode d model] brings [decoded d] to [decode t model] by
    re-decoding the rows whose port sets differ from the previous
    model's (every row on the first call), and returns one flag per
    row telling which did. *)

val block_model : t -> bool array -> Pmi_smt.Lit.t list
(** A clause refuting every assignment that agrees with [model] on all µop
    variables. *)

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

    One lemma covers every mapping with the violating shape, not only the
    model's own combination of the rows' port sets. *)
