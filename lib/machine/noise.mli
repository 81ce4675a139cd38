(** Deterministic measurement noise.

    Real microbenchmarks are noisy; the paper combats this with medians over
    11 runs and an ε-tolerant comparison (§4).  The simulator reproduces the
    phenomenon with a deterministic hash-based jitter so that every run of
    the reproduction is bit-identical. *)

val hash_experiment : Pmi_portmap.Experiment.t -> int
(** Order-insensitive hash of an experiment's multiset: {!key_add} of
    every [(scheme id, count)] element onto {!key_empty}. *)

val key_empty : int
(** {!hash_experiment} of the empty experiment. *)

val key_add : int -> id:int -> count:int -> int
(** [key_add key ~id ~count] adds one [(scheme id, count)] element to a
    multiset hash; the order of additions does not matter. *)

val jitter : seed:int -> key:int -> rep:int -> amplitude:float -> float
(** A pseudo-random value in [[-amplitude, +amplitude]], a pure function of
    its arguments (splitmix-style integer mixing). *)

val jitter_all :
  float array -> seed:int -> key:int -> amplitude:float -> unit
(** Jitters every element in place: element [rep] [x] becomes
    [x *. (1.0 +. jitter ~seed ~key ~rep ~amplitude)]. *)
