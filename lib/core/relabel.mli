(** Canonical port renaming (Table 2: "Inferred ports were renamed to ease
    comparison").

    Port mappings are only defined up to a permutation of the ports; the
    CEGIS result therefore uses solver-chosen numbers.  To compare with the
    documented layout (and to reuse documented port names downstream), this
    module searches a permutation aligning the inferred mapping with a set
    of documented usages.  Ports are matched by their membership signature
    across the documented schemes; when no perfect alignment exists (the
    paper's add-port ambiguity under the 5-IPC ceiling), documented schemes
    are greedily dropped until one does. *)

type alignment = {
  permutation : int array;               (** inferred port -> renamed port *)
  matched : Pmi_isa.Scheme.t list;       (** schemes aligned exactly *)
  dropped : Pmi_isa.Scheme.t list;       (** schemes sacrificed for a
                                             consistent renaming *)
}

val align :
  docs:(Pmi_isa.Scheme.t * Pmi_portmap.Mapping.usage) list ->
  Pmi_portmap.Mapping.t ->
  alignment option
(** [None] only when even the empty documentation set fails, which cannot
    happen for well-formed inputs. *)

val apply : int array -> Pmi_portmap.Mapping.t -> Pmi_portmap.Mapping.t
(** Rename every port of every usage through the permutation. *)

