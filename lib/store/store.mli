(** Durable crash-safe store for checker-accepted certificates.

    A [--certify] run checks every UNSAT verdict with the independent DRAT
    checker; the store lets an accepted certificate outlive the process
    that checked it, so a later run over the same store skips re-checking
    the exact same proof (see {!Pmi_core.Cegis.config}'s [store]).  Keys
    are goal digests, values accepted proof digests.

    {2 On-disk layout}

    A store directory holds one file, [journal.pmi], an append-only
    journal.  Every record is framed as [magic · u32 payload length · u32
    CRC32 · payload] where the payload is [u8 version · u8 kind · u16 key
    length · key · u32 value length · value] (all little-endian).  Appends
    are flushed to the OS after every record; the store deliberately does
    {e not} [fsync] (a process crash loses nothing; an OS crash may lose
    the tail, which recovery then treats as torn).  Replay applies records
    in order, so the last writer of a key wins.  A certified run appends
    about a hundred records and a warm re-run appends none, so the journal
    is never compacted.

    Certificates are kind code 1.  Codes 0 and 2 are retired: they held
    harness measurements and bench timing history in stores written
    before those record kinds were deleted.  Such records are intact, so
    replay skips them without counting them corrupt.  A [segment.pmi]
    that older builds wrote next to the journal is ignored: its
    certificates are cache misses, re-checked and appended again.

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

    [store.append] and [store.replay] spans, plus
    [store.{appends,hits,misses,recovered,corrupt,replayed}] counters (process-wide, one-atomic-branch no-ops when telemetry is
    off).

    {2 Crash injection}

    When the environment variable [PMI_STORE_CRASH_AFTER=n] is set, the
    n-th append writes half of a record's bytes, flushes, and raises
    [SIGKILL] against the process — a deterministic torn-tail crash the
    CI recovery gate uses.

    A store is safe to share across domains (every operation runs under
    an internal mutex). *)

type t

val open_ : string -> t
(** [open_ dir] creates [dir] if needed, replays the journal (recovering
    as described above) and opens it for append. *)

val close : t -> unit
(** Flush and close the journal.  Further operations raise
    [Invalid_argument]. *)

val put : t -> key:string -> string -> unit
(** Insert or overwrite (last writer wins).  The record is appended to
    the journal and flushed before [put] returns.  Re-putting the
    currently stored value is a no-op (no journal growth).
    @raise Invalid_argument when the key exceeds 65535 bytes or the value
    exceeds the 16 MiB record bound. *)

val get : t -> key:string -> string option

type stats = {
  live_certificates : int;
  journal_records : int;      (** records currently in the journal,
                                  retired ones included *)
  journal_bytes : int;
  replayed : int;             (** journal records recovered at [open_] *)
  corrupt : int;              (** corrupt records skipped at [open_] *)
  truncated_bytes : int;      (** torn-tail bytes removed at [open_] *)
}

val stats : t -> stats

type report = {
  r_journal_records : int;
  r_corrupt : int;       (** checksum-rejected records *)
  r_torn_bytes : int;    (** trailing bytes recovery would truncate *)
}

val verify : string -> report
(** Read-only scan of a store directory: nothing is truncated or
    repaired.  A healthy store (including one whose last writer was
    SIGKILLed mid-append) reports [r_corrupt = 0]; [r_torn_bytes > 0]
    only flags the torn tail the next {!open_} will drop.
    @raise Sys_error if [dir] is not an existing directory: unlike
    {!open_}, [verify] never creates a store. *)
