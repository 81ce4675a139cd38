(** Identifying and filtering blocking instructions (§3.2, §4.1-§4.2).

    Stage 1 benchmarks every instruction scheme individually: a scheme is a
    blocking-instruction candidate if it executes as a single µop whose
    throughput reveals an integral number of ports.  Schemes with unreliable
    measurements, µop-free execution (nops, eliminated movs) or throughput
    outside the model (non-pipelined dividers) are excluded, reproducing
    §4.1.2.

    Stage 2 measures pairs of candidates with equally sized port sets:
    their inverse throughputs are additive exactly when their port sets
    coincide.  Candidates whose pairings are unstable are dropped (cmov,
    AES, vcvt, double-precision multiplies), and candidates that produce
    {e contradictory} equivalence information — additive with two classes
    that are not additive with each other, the fma phenomenon of §4.2 — are
    detected as triangle offenders and dropped as well. *)

type config = {
  epsilon : Pmi_numeric.Rat.t;  (** CPI tolerance for throughput equality *)
  max_ports : int;              (** largest port-set size of any µop *)
  r_max : int;                  (** frontend throughput in instructions/cycle *)
}

val default_config : config
(** ε = {!Pmi_measure.Harness.Compare.default_epsilon} and Zen+'s shape
    ([max_ports] 4, [r_max] 5).  {!Pipeline.run} takes [r_max] from its
    machine and [max_ports] as [r_max - 1]. *)

val spread_threshold : float
(** CPI spread above which a measurement is considered unreliable (0.04),
    here and in {!Port_usage}. *)

(** Outcome of benchmarking one scheme individually (§4.1). *)
type individual =
  | Hardwired               (** AH/DH-style operands: no dependency-free
                                experiment can be built (§4.1.2) *)
  | Unreliable              (** spread too large (mov64-imm) *)
  | Zero_uop                (** retires without using ports (nop, mov r,r) *)
  | Outside_model           (** non-integral port count, or slower than any
                                mapping over its µops permits (FP dividers) *)
  | Candidate of int        (** single µop usable on the given #ports *)
  | Multi_uop of int        (** postulated µop count ≥ 2 *)

val classify_individual :
  ?config:config -> Pmi_measure.Harness.t -> Pmi_isa.Scheme.t -> individual

(** An equivalence class of blocking instructions. *)
type klass = {
  port_count : int;
  representative : Pmi_isa.Scheme.t;
  members : Pmi_isa.Scheme.t list;  (** includes the representative *)
}

type filtering = {
  classes : klass list;                       (** sorted by descending
                                                  port count, then id *)
  unstable : Pmi_isa.Scheme.t list;           (** dropped: unstable pairs *)
  contradictory : Pmi_isa.Scheme.t list;      (** dropped: triangle offenders *)
}

val filter_candidates :
  ?config:config ->
  Pmi_measure.Harness.t ->
  (Pmi_isa.Scheme.t * int) list ->
  filtering
(** [filter_candidates harness candidates] runs the pairing stage on
    [(scheme, port_count)] candidates.  A class's representative is its
    member whose mnemonic comes first in the paper's Table 1 order, then
    one with a 32-bit or 128-bit operand, then the lowest id.  It reads
    each candidate's singleton from the harness cache once and measures
    each pair of a size group once with {!Pmi_measure.Harness.measure},
    caching none of them. *)

val additive :
  ?config:config ->
  Pmi_measure.Harness.t ->
  Pmi_isa.Scheme.t -> Pmi_isa.Scheme.t ->
  bool
(** The §3.2 redundancy check: [tp⁻¹(\[i,j\]) = tp⁻¹(\[i\]) + tp⁻¹(\[j\])]
    up to ε.  The pair is measured afresh, as {!filter_candidates}
    measures it. *)

val triangle_counts : bool array array -> bool array -> int array
(** [triangle_counts adjacency alive]: for each live [s], the conflict
    triangles the pairing stage's prune counts at it, the pairs [a < b]
    of live neighbours of [s] (other than [s]) with [adjacency.(a).(b)]
    false; 0 for every other [s].  The prune computes these on bit rows,
    with popcounts. *)
