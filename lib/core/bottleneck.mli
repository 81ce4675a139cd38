(** Pipeline-bottleneck handling (§3.4).

    The port-mapping model assumes functional units are the only throughput
    limit.  Real frontends sustain only [r_max] instructions per cycle; the
    algorithm's checks remain sound only if [r_max] strictly exceeds the
    largest port-set size of any µop, so that flooding a port set is
    distinguishable from hitting the frontend. *)

val gap_ok : r_max:int -> max_port_set:int -> bool
(** The §3.4 requirement: a gap must exist between the frontend rate and
    the widest µop ([r_max > max_port_set]). *)

val check : r_max:int -> max_port_set:int -> unit
(** @raise Invalid_argument when the requirement is violated. *)
