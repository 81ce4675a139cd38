(** The simulated Zen+ ground truth: port layout and per-class port usage.

    Ports follow the Software Optimization Guide layout used in the paper's
    Table 2 (after renaming): FP pipes 0-3, AGU/load 4-5 (stores retire
    through port 5), scalar ALUs 6-9. *)

val usage_for :
  Profile.t -> Pmi_isa.Iclass.structure -> Pmi_portmap.Mapping.usage
(** µop multiset of a scheme under an arbitrary profile (§3.5). *)

val mapping_for : Profile.t -> Pmi_isa.Catalog.t -> Pmi_portmap.Mapping.t

val num_ports : int
(** 10, as in the paper's case study (§4.3). *)

val r_max : int
(** Sustained frontend/retire throughput: 5 instructions per cycle (§3.5). *)

val ms_ops_per_cycle : int
(** Microcode-sequencer emission rate: 4 ops per cycle (§4.4). *)

val div_occupancy : int
(** Cycles a non-pipelined divider µop occupies its port (§4.1.2). *)

val ports_of_base : Pmi_isa.Iclass.base -> Pmi_portmap.Portset.t

val usage_of_structure : Pmi_isa.Iclass.structure -> Pmi_portmap.Mapping.usage
(** µop multiset of a scheme with the given structure; empty for [Nullary]. *)
