(** Static block analysis on top of a port mapping — the downstream use
    case that motivates port-mapping inference (llvm-mca / uiCA-style
    reports; §1 of the paper).

    For a basic block, the analysis solves the §2.2 linear program and
    reports the steady-state inverse throughput, the achieved IPC under the
    frontend limit, an optimal per-port pressure distribution (from the LP
    solution), the bottleneck port set witnessing optimality, and the µop
    decomposition of every instruction. *)

type t = {
  experiment : Experiment.t;
  inverse_throughput : Pmi_numeric.Rat.t;  (** port-model cycles/iteration *)
  bounded_cycles : Pmi_numeric.Rat.t;      (** with the frontend limit *)
  ipc : Pmi_numeric.Rat.t;
  frontend_bound : bool;   (** the frontend, not the ports, limits it *)
  bottleneck : Portset.t;  (** bottleneck port set of the port model *)
  port_pressure : Pmi_numeric.Rat.t array; (** cycles per port/iteration in
                                               one optimal distribution *)
  decomposition : (Pmi_isa.Scheme.t * Mapping.usage * int) list;
  (** per distinct scheme: its µops and its occurrence count *)
}

val analyze : r_max:int -> Mapping.t -> Experiment.t -> t
(** [r_max] is the machine's frontend width (§3.4).
    @raise Throughput.Unsupported when the mapping does not cover a scheme
    of the block. *)

val pp : Format.formatter -> t -> unit
(** Render an mca-style report: summary line, port-pressure table, and the
    per-instruction µop table. *)
