(** The bench-regression gate.

    Compares one [bench --json] run against the newest entry of a
    [BENCH_sat.json]-style history file and flags any named bench whose
    wall-clock regressed by more than {!threshold} (25%).
    Only timing records gate; [count]-type solver statistics are carried
    along but never fail the gate.  Runs without a matching
    [schema_version] are {e incomparable}: the comparison returns [Error]
    rather than a verdict, so the gate can reject records produced by an
    older bench driver instead of misreading them. *)

val schema_version : int
(** The bench --json schema this build writes (and requires of both sides
    of a comparison). *)

type record = {
  name : string;
  ns_per_run : float option;
  count : int option;
}

type run = {
  version : int option;  (** [schema_version] of the record, if present *)
  records : record list;
}

val parse_run : string -> (run, string) result
(** Parse a [bench --json] file: either the current versioned object
    ([{schema_version; results; ...}]) or the legacy bare record array
    (which parses with [version = None] and is therefore incomparable). *)

val latest_history_entry : string -> (run, string) result
(** The newest entry of a [{"history": [...]}] file (newest last). *)

val fastest : run list -> (run, string) result
(** Several runs of the same benches as one run: each timing record at
    its fastest across the runs (noise only ever adds time), every other
    field from the first run naming the bench.  [Error] on an empty list
    or on runs of different schema versions. *)

type verdict = {
  bench : string;
  baseline_ns : float;
  current_ns : float;
  ratio : float;       (** current / baseline *)
  regressed : bool;    (** [ratio > 1 + threshold] *)
}

val threshold : float
(** 0.25: a bench regresses when it takes more than 1.25 times its
    baseline. *)

val compare_runs :
  baseline:run -> current:run -> (verdict list, string) result
(** One verdict per bench named in both runs, in the current run's order.
    [Error] when either side lacks a schema version or the versions
    differ. *)

val regressions : verdict list -> verdict list

val report : verdict list -> string
(** Human-readable verdict table plus a one-line summary. *)
