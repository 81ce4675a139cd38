(** The Palmed baseline (Derumigny et al., CGO 2022), reimplemented for the
    Figure 5 comparison.

    Palmed infers {e conjunctive resource mappings}: every instruction puts
    a non-negative pressure on a set of abstract resources, and the inverse
    throughput of a sequence is the maximum total pressure on any resource.
    Our simplified reconstruction follows its two-phase structure: a core of
    basic instructions is selected heuristically by throughput (one abstract
    resource per core class, plus a frontend resource), and every other
    instruction's pressures are fitted from benchmarks against saturating
    kernels of each resource.  Resources have no direct microarchitectural
    identity, which is exactly the drawback the paper discusses (§5). *)

(** Saturating kernels hold 8 copies of a core instruction; the frontend
    resource has the harness machine's [r_max]. *)
type config = {
  throughput_classes : int; (** resolution of the core-selection heuristic *)
  measurement_bias : float;
  (** Relative cycle overestimation of Palmed's own measurement
      infrastructure.  The paper could not port Palmed to its harness and
      observed systematically slow predictions (§4.5); the bias emulates
      that infrastructure mismatch. *)
}

val default_config : config
(** 64 throughput classes and a bias of 1.4. *)

type t

val infer :
  ?config:config -> Pmi_measure.Harness.t -> Pmi_isa.Scheme.t list -> t
(** Build a resource model for the given schemes, running its own
    benchmarks on the harness. *)

val resources : t -> int
val supports : t -> Pmi_isa.Scheme.t -> bool

val predict : t -> Pmi_portmap.Experiment.t -> Pmi_numeric.Rat.t
(** Predicted inverse throughput: the most-loaded resource.
    @raise Not_found if a scheme was not modelled. *)

val pressure : t -> Pmi_isa.Scheme.t -> (string * float) list
(** The instruction's pressure per named resource (reporting). *)
