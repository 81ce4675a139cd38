(** The throughput oracle of the port-mapping model.

    For a mapping [M] and experiment [e], the inverse throughput is the
    optimum of the linear program (A)-(E) of §2.2.  This module computes it
    with the bottleneck-set characterisation (Ritter & Hack 2020, §4.5, the
    same fact behind the paper's constraints F-I):

    {v tp⁻¹(e) = max over non-empty Q ⊆ P of  mass(Q) / |Q| v}

    where [mass Q] is the total mass of µops whose admissible ports all lie
    inside [Q].  The computation is exact (integer masses, rational result)
    and is cross-checked against {!Lp_model} in the test suite. *)

exception Unsupported of Pmi_isa.Scheme.t
(** Raised when the experiment contains a scheme the mapping does not map. *)

val uop_masses : Mapping.t -> Experiment.t -> (Portset.t * int) list
(** Total µop mass per µop kind for one iteration of the experiment.
    @raise Unsupported *)

val of_masses : (Portset.t * int) list -> Pmi_numeric.Rat.t
(** Inverse throughput of a pre-aggregated mass profile. *)

val inverse : Mapping.t -> Experiment.t -> Pmi_numeric.Rat.t
(** [tp⁻¹_M(e)] in cycles per experiment iteration.  @raise Unsupported *)

val bottleneck_set : Mapping.t -> Experiment.t -> Portset.t
(** A set [Q] of ports attaining the maximum (the witness of optimality used
    by constraints F-I); empty for an empty experiment.  @raise Unsupported *)

val inverse_bounded : r_max:int -> Mapping.t -> Experiment.t -> Pmi_numeric.Rat.t
(** §3.4 adjustment: [max (tp⁻¹ e) (|e| / r_max)], modelling a frontend or
    retirement bottleneck of [r_max] instructions per cycle.
    @raise Unsupported *)

val ipc : r_max:int -> Mapping.t -> Experiment.t -> Pmi_numeric.Rat.t
(** Instructions per cycle under the bounded model; 0 for empty experiments.
    @raise Unsupported *)
