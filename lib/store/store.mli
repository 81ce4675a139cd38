(** Durable crash-safe store for checker-accepted certificates and bench
    history.

    A [--certify] run checks every UNSAT verdict with the independent DRAT
    checker; the store lets an accepted certificate outlive the process
    that checked it, so a later run over the same store skips re-checking
    the exact same proof (see {!Pmi_core.Cegis.config}'s [store]).  The
    benchmark runner keeps its timing history here too.

    {2 On-disk layout}

    A store directory holds two files:

    - [journal.pmi] — an append-only journal.  Every record is framed as
      [magic · u32 payload length · u32 CRC32 · payload] where the payload
      is [u8 version · u8 kind · u16 key length · key · u32 value length ·
      value] (all little-endian).  Appends are flushed to the OS after
      every record; the store deliberately does {e not} [fsync] (a
      process crash loses nothing; an OS crash may lose the tail, which
      recovery then treats as torn).
    - [segment.pmi] — the compacted history: the same record framing
      behind an 8-byte header, followed by an index
      ([u32 entry count · (u8 kind · u16 key length · key · u64 offset)*])
      and a 16-byte footer ([u64 index offset · u32 index CRC32 · u32
      magic]).  Compaction writes live records (last writer wins per
      [kind · key]) to a temporary file and publishes it with an atomic
      [rename], then truncates the journal — a crash between the two
      steps only leaves journal records that replay idempotently over the
      segment.

    Kind code 0 is retired: it held harness measurements in stores
    written before that record kind was deleted.  Such records are intact,
    so replay skips them without counting them corrupt, and the next
    compaction drops them.

    {2 Recovery}

    [open_] never fails on a damaged journal.  Replay walks the journal
    record by record:

    - an incomplete record at the end of the file (short header or short
      payload) is a {e torn tail} — it is truncated away and counted in
      [truncated_bytes] / the [store.recovered] counter;
    - a complete record whose CRC32 does not match is {e corrupt} — it is
      skipped (framing is intact, so replay continues) and counted in
      [corrupt] / the [store.corrupt] counter;
    - a record with a bad magic or an implausible length means the
      framing itself is gone — replay stops and truncates there.

    {2 Telemetry}

    [store.append], [store.replay] and [store.compact] spans, plus
    [store.{appends,hits,misses,recovered,corrupt,replayed,compactions}]
    counters (process-wide, one-atomic-branch no-ops when telemetry is
    off).

    {2 Crash injection}

    When the environment variable [PMI_STORE_CRASH_AFTER=n] is set, the
    n-th append writes half of a record's bytes, flushes, and raises
    [SIGKILL] against the process — a deterministic torn-tail crash the
    CI recovery gate uses.

    A store is safe to share across domains (every operation runs under
    an internal mutex). *)

type t

type kind =
  | Certificate    (** goal hash → accepted DRAT proof digest (code 1) *)
  | Bench_history  (** bench name + date → timing record (code 2) *)

val kind_name : kind -> string
(** ["certificate"], ["bench_history"]. *)

val open_ : ?auto_compact:int -> string -> t
(** [open_ dir] creates [dir] if needed, loads the segment, replays the
    journal (recovering as described above) and opens the journal for
    append.  [auto_compact] (default 8192, [<= 0] disables) is the number
    of journal records that triggers an automatic {!compact} inside
    {!put}. *)

val close : t -> unit
(** Flush and close the journal.  Further operations raise
    [Invalid_argument]. *)

val dir : t -> string

val put : t -> kind -> key:string -> string -> unit
(** Insert or overwrite (last writer wins).  The record is appended to
    the journal and flushed before [put] returns.  Re-putting the
    currently stored value is a no-op (no journal growth).
    @raise Invalid_argument when the key exceeds 65535 bytes or the value
    exceeds the 16 MiB record bound. *)

val get : t -> kind -> key:string -> string option
val mem : t -> kind -> key:string -> bool

val iter : t -> kind -> (key:string -> string -> unit) -> unit
(** Live records of one kind, in unspecified order. *)

val live : t -> kind -> int
(** Number of live records of one kind. *)

val compact : t -> unit
(** Write all live records to a fresh segment (atomic rename) and
    truncate the journal. *)

type stats = {
  live_certificates : int;
  live_bench : int;
  journal_records : int;      (** records currently in the journal,
                                  retired ones included *)
  segment_records : int;      (** records loaded from the segment,
                                  retired ones included *)
  journal_bytes : int;
  segment_bytes : int;
  replayed : int;             (** journal records recovered at [open_] *)
  corrupt : int;              (** corrupt records skipped at [open_] *)
  truncated_bytes : int;      (** torn-tail bytes removed at [open_] *)
  compactions : int;          (** compactions since [open_] *)
  appends : int;              (** appends since [open_] *)
  hits : int;                 (** [get] hits since [open_] *)
  misses : int;               (** [get] misses since [open_] *)
}

val stats : t -> stats

type report = {
  r_segment_records : int;
  r_journal_records : int;
  r_corrupt : int;       (** checksum-rejected records in either file *)
  r_torn_bytes : int;    (** trailing bytes recovery would truncate *)
}

val verify : string -> report
(** Read-only scan of a store directory: nothing is truncated or
    repaired.  A healthy store (including one whose last writer was
    SIGKILLed mid-append) reports [r_corrupt = 0]; [r_torn_bytes > 0]
    only flags the torn tail the next {!open_} will drop. *)
