(** Sparse throughput oracle.

    Computes exactly the same value as {!Throughput.inverse} — the
    bottleneck-set optimum [max over ∅≠Q⊆P of mass(Q)/|Q|] — from the
    experiment's distinct non-empty µop port masks and their masses alone.
    By the bottleneck-set theorem (§2.2) the optimum is attained at a union
    of those masks, so with k masks over their union U a query enumerates
    the unions of subsets of the masks in O(2^k), or the submasks of U in
    O(2^|U|·k) when k > |U|, independent of the port count.  Queries read
    the rows {!Mapping.set} compiled ({!Mapping.row}) into a scratch
    profile of their own and cache nothing, so one oracle can be shared
    across domains as is.

    All results are exact and agree with {!Throughput} up to
    {!Pmi_numeric.Rat.equal} (property-tested in [test/test_oracle.ml]).
    The [_frac] queries, the only ones {!Acc} has, return the value as a
    native [(num, den)] pair, [den > 0], for hot loops that compare
    fractions without building a {!Pmi_numeric.Rat.t}; the port bound is
    [(mass q*, |q*|)] unreduced, q* the smallest maximising mask. *)

type t

val create : Mapping.t -> t
(** An oracle for the mapping, in O(1).  The mapping is captured by
    reference and must not be mutated afterwards. *)

val num_ports : t -> int

val prepare : t -> Pmi_isa.Scheme.t list -> unit
(** Check that the mapping maps every given scheme.
    @raise Throughput.Unsupported if it does not map one of them. *)

val inverse : t -> Experiment.t -> Pmi_numeric.Rat.t
(** [tp⁻¹(e)], exactly as {!Throughput.inverse}.
    @raise Throughput.Unsupported *)

val inverse_bounded : r_max:int -> t -> Experiment.t -> Pmi_numeric.Rat.t
(** As {!Throughput.inverse_bounded}: the oracle value capped below by the
    §3.4 frontend bound [|e| / r_max].  @raise Throughput.Unsupported *)

val inverse_bounded_frac : r_max:int -> t -> Experiment.t -> int * int
(** {!inverse_bounded} as a native [(num, den)] pair.
    @raise Throughput.Unsupported *)

val bottleneck_set : t -> Experiment.t -> Portset.t
(** The smallest mask (as an integer) attaining the optimum; empty for an
    empty experiment. *)

(** Mass-profile accumulator: the µop masses of a working experiment,
    built from compiled rows ({!Mapping.row}), [count] copies of one row
    at a time, and emptied by {!reset}.  It is the one way a profile is
    built outside a single query: the stratified distinguishing-experiment
    search rebuilds one for each leaf value it has not kept, and the
    simulated machine assembles each experiment's quirk-adjusted rows in
    one.  A row need not come from any particular mapping; equal masks of
    different rows merge. *)
module Acc : sig
  type t

  val create : unit -> t
  (** An empty accumulator (the empty experiment). *)

  val add_row : t -> Mapping.row -> int -> unit
  (** Add [count] copies of the row.
      @raise Invalid_argument ["Oracle.Acc.add_row"] on a negative count. *)

  val length : t -> int
  (** Instruction count of the current experiment: the sum of the counts
      added since the last {!reset}. *)

  val distinct_masks : t -> int
  (** Distinct port masks with positive mass in the current experiment:
      the k the kernel enumerates over. *)

  val reset : t -> unit

  val inverse_frac : t -> int * int
  (** The bottleneck optimum of the profile as a native [(num, den)]
      pair, [(mass q*, |q*|)] unreduced; [(0, 1)] when empty. *)

  val inverse_bounded_frac : r_max:int -> t -> int * int
  (** {!inverse_frac} capped below by the §3.4 frontend bound
      [length / r_max], as {!Oracle.inverse_bounded_frac}. *)
end
