(** Telemetry for the CEGIS/SAT stack: hierarchical spans, named
    counters, and a bounded event ring, with a human-readable tree
    summary and a Chrome-trace-format exporter ([chrome://tracing] /
    Perfetto).

    The paper's pitch is {e explainability}: the inference loop should be
    able to say why it asked each question and what each answer cost.  This
    module is the "what it cost" half — every CEGIS iteration, solver call,
    oracle search and harness measurement opens a span, so one [--trace]
    run of [pmi_repro infer] yields a timeline of the whole CEGIS dialogue.

    Like [Pmi_diag.Race], the library is {e off} by default and every entry
    point starts with a single [Atomic.get] on the enable flag: disabled
    instrumentation costs one predictable branch and allocates nothing (see
    the [ablation/obs-{off,on}-cegis] benches).  When enabled, each domain
    records into its own bounded ring (oldest events overwritten, drops
    counted), so instrumented code never contends on a shared buffer; the
    exporters merge the per-domain rings.  The internal state is guarded by
    plain mutexes/atomics invisible to the race detector, so traced
    workloads stay clean under [pmi_repro sanitize].

    Export while a parallel region is still writing is not supported:
    call {!events} / {!chrome_trace} / {!summary} after joining, from the
    thread that called {!enable}. *)

(* ------------------------------------------------------------------ *)
(** {1 Switching telemetry on and off} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Reset all telemetry state (rings, open spans, counters, drop counts)
    and start recording.  The trace clock starts at zero here. *)

val disable : unit -> unit
(** Stop recording.  Data accumulated so far remains readable. *)

val set_ring_capacity : int -> unit
(** Per-domain event-ring capacity (default 65536).  Takes effect at the
    next {!enable}. *)

(* ------------------------------------------------------------------ *)
(** {1 Spans} *)

(** Values attachable to spans. *)
type arg =
  | Int of int
  | Str of string

type frame
(** Handle for an open span.  A dummy is returned when disabled; closing a
    dummy (or a frame orphaned by a concurrent {!enable}) is a no-op. *)

val enter : ?args:(string * arg) list -> string -> frame
(** Open a span on the current domain, nested under the innermost open
    span of this domain. *)

val leave : ?args:(string * arg) list -> frame -> unit
(** Close the span; [?args] are appended to the ones given at {!enter}
    (use this for results only known at the end, e.g. solver conflict
    deltas).  Children left open by an exception are dropped. *)

val span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span name f] = enter, run [f], leave (exception-safe; an escaping
    exception is recorded as an ["exn"] argument).  When disabled this is
    exactly one atomic load followed by [f ()]. *)

(* ------------------------------------------------------------------ *)
(** {1 Counters} *)

type counter
(** A named monotone counter.  Creation interns by name, so modules can
    create their handles at initialisation time and share them. *)

val counter : string -> counter

val incr : counter -> unit
(** One atomic-load branch when disabled; an [Atomic.incr] when enabled. *)

val add : counter -> int -> unit
(** Counters are monotone: raises [Invalid_argument] on a negative
    increment. *)

val value : counter -> int
val counters : unit -> (string * int) list
(** All counters with their current values, sorted by name.  Counters are
    zeroed by {!enable}. *)

(* ------------------------------------------------------------------ *)
(** {1 Reading the recorded data} *)

type kind = Span
(** Every recorded event is a closed span; readers may still filter on
    [kind]. *)

type event = {
  kind : kind;
  name : string;
  path : string;   (** ['/']-joined names of the enclosing spans + [name] *)
  tid : int;       (** numeric id of the recording domain *)
  ts_ns : int;     (** start, nanoseconds since {!enable} *)
  dur_ns : int;    (** duration *)
  depth : int;     (** nesting depth at recording time *)
  args : (string * arg) list;
}

val events : unit -> event list
(** Every retained event, merged across domains, sorted by [ts_ns].  Only
    {e closed} spans appear (a span is recorded when it leaves). *)

val dropped : unit -> int
(** Events lost to ring overwrite or span-stack overflow. *)

val clock_ns : unit -> int
(** The raw monotonic clock (nanoseconds from an arbitrary origin). *)

(* ------------------------------------------------------------------ *)
(** {1 Exporters} *)

val chrome_trace : unit -> string
(** The retained events as Chrome trace format JSON (an object with a
    [traceEvents] array): spans as ["ph":"X"] complete events with
    microsecond [ts]/[dur], counters as ["ph":"C"] samples, and
    thread-name metadata per domain.  Loadable
    in [chrome://tracing] and Perfetto. *)

val write_chrome_trace : string -> unit
(** Write {!chrome_trace} to the given file path. *)

val summary : unit -> string
(** Human-readable report: the span tree aggregated by path (calls, total,
    self time), then counters and the drop count. *)
